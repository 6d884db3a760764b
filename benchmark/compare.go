package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareFiles is `stbenchmark -compare a.jsonl b.jsonl`: a is the base
// (the parent commit's runs), b the change's. Each file is an out/runs.jsonl
// — one line per run, any number of runs per workload. For every workload
// and end-to-end metric it prints both medians, their ratio, the bound and
// a verdict:
//
//	better      b's median is better than a's by more than the bound
//	same        the medians differ by no more than the bound
//	worse       b's median is worse than a's by more than the bound
//	unresolved  either side's own quartile spread exceeds the bound, so
//	            the runs cannot tell same from worse
//
// It returns exitIncorrect when any row is worse or b failed more
// operations than a, exitOK otherwise.
func compareFiles(out io.Writer, aPath, bPath string) int {
	a, err := loadRuns(aPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stbenchmark:", err)
		return exitUsage
	}
	b, err := loadRuns(bPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stbenchmark:", err)
		return exitUsage
	}
	code := exitOK
	fmt.Fprintf(out, "%-15s %-22s %12s %12s %8s %6s %5s %5s  %s\n",
		"workload", "metric", "a(median)", "b(median)", "b/a", "bound", "na", "nb", "verdict")
	for _, wl := range workloadNames {
		ra, rb := a[wl], b[wl]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			va, vb := values(ra, d.Name), values(rb, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			verdict := judge(d, ma, mb, max(spread(va), spread(vb)))
			if verdict == "worse" {
				code = exitIncorrect
			}
			fmt.Fprintf(out, "%-15s %-22s %12.5g %12.5g %8.3f %6.2f %5d %5d  %s\n",
				wl, d.Name, ma, mb, mb/ma, d.Bound, len(va), len(vb), verdict)
		}
		fa, fb := failShare(ra), failShare(rb)
		verdict := "same"
		if fb > fa {
			verdict = "worse"
			code = exitIncorrect
		}
		fmt.Fprintf(out, "%-15s %-22s %12.5g %12.5g %8s %6s %5d %5d  %s\n",
			wl, "fail_share", fa, fb, "-", "0", len(ra), len(rb), verdict)
	}
	return code
}

// judge classifies b's median against a's for one metric. noise is the
// wider of the two sides' quartile spreads as a share of their median.
func judge(d metricDef, ma, mb, noise float64) string {
	if ma == 0 {
		return "unresolved"
	}
	// worsening > 0 means b is worse, as a share of a.
	worsening := (mb - ma) / ma
	if d.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case noise > d.Bound:
		return "unresolved"
	case worsening > d.Bound:
		return "worse"
	case worsening < -d.Bound:
		return "better"
	}
	return "same"
}

// spread is the distance between the first and third quartile as a share
// of the median; 0 for fewer than two values.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := median(s)
	if m == 0 {
		return 0
	}
	q := func(p float64) float64 { // linear interpolation between ranks
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return (q(0.75) - q(0.25)) / m
}

func values(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failShare(runs []result) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// loadRuns reads a runs.jsonl file and groups its untraced runs by
// workload.
func loadRuns(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}
