package main

import (
	"bufio"
	"context"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Op classes: the class latencies of the workloads that have them are
// taken per class.
const (
	classOp     = iota // the workload's op
	classApprox        // serve_cold's approx ops
	classRead          // ingest_live's delta-laden reads
	classPush          // ingest_live's commit-to-last-subscriber time
)

// sample is one client-observed operation.
type sample struct {
	class int
	// primary marks the operations p50_ms and p95_ms are taken over.
	primary bool
	ms      float64
	ok      bool
	// at is when the operation completed, from the start of the window.
	at time.Duration
}

// measured is what one measure window produced.
type measured struct {
	// samples are in completion order.
	samples []sample
	// opEnds[i] is when the i-th unit of ops_per_s completed, from the
	// start of the window, ascending.
	opEnds []time.Duration
}

// classMS returns the latencies of one op class, in completion order.
func (m *measured) classMS(class int) []float64 {
	var out []float64
	for _, s := range m.samples {
		if s.class == class {
			out = append(out, s.ms)
		}
	}
	return out
}

// primaryMS returns the latencies p50_ms and p95_ms are taken over.
func (m *measured) primaryMS() []float64 {
	var out []float64
	for _, s := range m.samples {
		if s.primary {
			out = append(out, s.ms)
		}
	}
	return out
}

// slices is how many consecutive equal-count groups a window's ops are cut
// into for the two metrics a transient disturbance moves most, ops_per_s
// and p50_ms: each is computed per group and the median group is reported,
// so a burst of outside load during one or two groups does not decide the
// run. A window with fewer than minPerSlice ops a group (ingest_live's few
// dozen cycles) is taken whole: its groups would be too small to have a
// median worth the name.
const (
	slices      = 6
	minPerSlice = 50
)

// group returns the bounds [lo, hi) of group g of n items cut into slices.
func group(n, g int) (lo, hi int) { return g * n / slices, (g + 1) * n / slices }

// opsPerSecond is the median over the groups of the rate at which the
// group's ops completed.
func (m *measured) opsPerSecond() float64 {
	n := len(m.opEnds)
	if n < minPerSlice*slices {
		if n == 0 || m.opEnds[n-1] <= 0 {
			return 0
		}
		return float64(n) / m.opEnds[n-1].Seconds()
	}
	rates := make([]float64, 0, slices)
	for g := 0; g < slices; g++ {
		lo, hi := group(n, g)
		var from time.Duration
		if lo > 0 {
			from = m.opEnds[lo-1]
		}
		rates = append(rates, float64(hi-lo)/(m.opEnds[hi-1]-from).Seconds())
	}
	return median(rates)
}

// groupedP50 is the median over the groups of the group's median latency.
func groupedP50(latMS []float64) float64 {
	n := len(latMS)
	if n < minPerSlice*slices {
		return median(latMS)
	}
	meds := make([]float64, 0, slices)
	for g := 0; g < slices; g++ {
		lo, hi := group(n, g)
		meds = append(meds, median(latMS[lo:hi]))
	}
	return median(meds)
}

func (m *measured) failed() int64 {
	var n int64
	for _, s := range m.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// percentile returns the p-quantile (0..1) of vs by nearest rank; 0 for an
// empty set.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(p * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// closedLoop drives clients goroutines for d: each takes the next op index
// from a shared counter, runs it, and only then takes another — the shape
// of callers that wait for their reply. An op in flight at the deadline
// completes and counts. do returns the op's samples (one for most ops).
func closedLoop(ctx context.Context, clients int, d time.Duration, next *atomic.Int64,
	do func(i int64) sample,
) *measured {
	deadline := time.Now().Add(d)
	per := make([][]sample, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				s := do(next.Add(1) - 1)
				s.at = time.Since(start)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	m := &measured{}
	for _, s := range per {
		m.samples = append(m.samples, s...)
	}
	sort.Slice(m.samples, func(i, j int) bool { return m.samples[i].at < m.samples[j].at })
	for _, s := range m.samples {
		m.opEnds = append(m.opEnds, s.at)
	}
	return m
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// loopbackClient returns an HTTP client with the default transport's
// settings on a transport of its own, so its idle connections can be closed
// at teardown without touching http.DefaultTransport.
func loopbackClient() (*http.Client, *http.Transport) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	return &http.Client{Transport: tr}, tr
}

// dirBytes sums the sizes of the regular files under dir whose names end
// in suffix ("" for all of them).
func dirBytes(dir, suffix string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() && strings.HasSuffix(path, suffix) {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
