package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"st4ml/internal/datagen"
	"st4ml/internal/geom"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
	"st4ml/internal/tempo"
)

// scale sizes a run. fullScale is what BENCHMARK.json's numbers are
// measured at; the smoke test shrinks it.
type scale struct {
	ServeEvents int // events in the serve_cold/serve_hot/routed store
	LiveBase    int // events ingested before ingest_live starts appending
	Batch       int // events per ingest_live append
	PipeEvents  int // events in the pipeline_batch event store
	Trajs       int // trajectories in the pipeline_batch trajectory store
	// Window lattices (cells along x, y and t; one window per cell).
	Windows     lattice // query windows of the serving workloads
	PipeWindows lattice // windows per dataset of pipeline_batch
	Standing    lattice // standing subscriptions of ingest_live
}

// lattice is a grid of window positions over space and time.
type lattice struct{ NX, NY, NT int }

func (l lattice) size() int { return l.NX * l.NY * l.NT }

var fullScale = scale{
	ServeEvents: 400_000,
	LiveBase:    200_000,
	Batch:       2_000,
	PipeEvents:  200_000,
	Trajs:       20_000,
	Windows:     lattice{8, 8, 8},
	PipeWindows: lattice{5, 5, 4},
	Standing:    lattice{4, 4, 1},
}

// windowFrac is the share of the extent per axis, and of the year, that
// every query window covers.
const windowFrac = 0.15

// The corpora are fixed and the benchmark seed drives the traffic over
// them: where the query windows sit and in what order they are asked, and
// what the appended batches hold. datagen derives a corpus's hot-spot
// centres from its seed, so a corpus per seed would be a different city
// per run — result sizes, partition layout and cache behaviour all move,
// and runs on different seeds would measure different workloads.
const (
	corpusEvents   = 1
	corpusTrajBase = 2
	corpusTrajJit  = 3
)

// Seed offsets keep the seeded pieces of one benchmark seed independent.
const (
	seedWindows  = 2
	seedStanding = 3
	seedTrajWin  = 6
	seedBatches  = 1000
)

func subSeed(seed int64, offset int64) int64 { return seed*1_000_003 + offset }

// genEvents generates the n-event NYC-like corpus.
func genEvents(n int) []stdata.EventRec { return datagen.NYC(n, corpusEvents) }

// genTrajs generates the n-trajectory enlarged Porto-like corpus, the
// shape of the paper-figure harness (a quarter generated, each replicated
// four times with jitter).
func genTrajs(n int) []stdata.TrajRec {
	base := datagen.Porto(n/4+1, corpusTrajBase)
	return datagen.Enlarge(base, 4, 20, 120, corpusTrajJit)[:n]
}

// genBatch generates append batch j of ingest_live. datagen numbers every
// corpus from 0, so ids are shifted past the base and the earlier batches:
// every live record keeps a unique id, which the id digests rely on.
func genBatch(sc scale, seed int64, j int) []stdata.EventRec {
	recs := datagen.NYC(sc.Batch, subSeed(seed, seedBatches+int64(j)))
	for i := range recs {
		recs[i].ID = int64(sc.LiveBase + j*sc.Batch + i)
	}
	return recs
}

// genWindows places one window in every cell of the lattice, each covering
// windowFrac of the extent per axis and windowFrac of the year, jittered
// inside its cell, and returns them in a seeded shuffle. Stratifying keeps
// the mix of busy and empty windows the same on every seed, where
// independent draws would make one seed's workload a tenth heavier than
// another's; the data's hot-spot skew still makes result sizes uneven.
func genWindows(extent geom.MBR, l lattice, seed int64) []selection.Window {
	rng := rand.New(rand.NewSource(seed))
	year := datagen.Year2013
	w := extent.Width() * windowFrac
	h := extent.Height() * windowFrac
	span := int64(float64(year.Seconds()) * windowFrac)
	// A window's low corner ranges over what is left of each axis.
	cx := (extent.Width() - w) / float64(l.NX)
	cy := (extent.Height() - h) / float64(l.NY)
	ct := float64(year.Seconds()-span) / float64(l.NT)
	out := make([]selection.Window, 0, l.size())
	for it := 0; it < l.NT; it++ {
		for iy := 0; iy < l.NY; iy++ {
			for ix := 0; ix < l.NX; ix++ {
				x := extent.MinX + (float64(ix)+rng.Float64())*cx
				y := extent.MinY + (float64(iy)+rng.Float64())*cy
				t := year.Start + int64((float64(it)+rng.Float64())*ct)
				out = append(out, selection.Window{
					Space: geom.Box(x, y, x+w, y+h),
					Time:  tempo.New(t, t+span),
				})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// queryBody marshals one POST /query body for the dataset "nyc". Every
// measured request bypasses the result cache (noCache); the partition
// cache is what the workloads vary.
func queryBody(w selection.Window, records, approx, noCache bool) []byte {
	b, err := json.Marshal(serve.QueryRequest{
		Dataset: "nyc",
		MinX:    w.Space.MinX, MinY: w.Space.MinY,
		MaxX: w.Space.MaxX, MaxY: w.Space.MaxY,
		TStart: w.Time.Start, TEnd: w.Time.End,
		Records: records,
		NoCache: noCache,
		Approx:  approx,
	})
	if err != nil {
		panic(err) // a struct of numbers and bools cannot fail to marshal
	}
	return b
}

// inputDigest hashes generated inputs in a layout of the benchmark's own,
// so the pin moves only when the inputs do, not when a product codec does.
type inputDigest struct{ h hash.Hash }

func newInputDigest() *inputDigest { return &inputDigest{h: sha256.New()} }

func (d *inputDigest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *inputDigest) bytes(b []byte) {
	d.u64(uint64(len(b)))
	d.h.Write(b)
}

func (d *inputDigest) events(recs []stdata.EventRec) {
	d.u64(uint64(len(recs)))
	for _, e := range recs {
		d.u64(uint64(e.ID))
		d.u64(math.Float64bits(e.Loc.X))
		d.u64(math.Float64bits(e.Loc.Y))
		d.u64(uint64(e.Time))
		d.bytes([]byte(e.Aux))
	}
}

func (d *inputDigest) trajs(recs []stdata.TrajRec) {
	d.u64(uint64(len(recs)))
	for _, t := range recs {
		d.u64(uint64(t.ID))
		d.u64(uint64(len(t.Points)))
		for i, p := range t.Points {
			d.u64(math.Float64bits(p.X))
			d.u64(math.Float64bits(p.Y))
			d.u64(uint64(t.Times[i]))
		}
	}
}

func (d *inputDigest) windows(ws []selection.Window) {
	d.u64(uint64(len(ws)))
	for _, w := range ws {
		d.u64(math.Float64bits(w.Space.MinX))
		d.u64(math.Float64bits(w.Space.MinY))
		d.u64(math.Float64bits(w.Space.MaxX))
		d.u64(math.Float64bits(w.Space.MaxY))
		d.u64(uint64(w.Time.Start))
		d.u64(uint64(w.Time.End))
	}
}

func (d *inputDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// pinnedInputsFile holds "<workload> <seed> <sha256>" lines for the seeds
// whose inputs are frozen at full scale.
const pinnedInputsFile = "testdata/inputs.sha256"

// checkPinnedInputs fails when the workload's inputs for a pinned seed no
// longer hash to the recorded digest: datagen drifted, and numbers measured
// before and after the drift are not comparable. Unpinned seeds pass.
func checkPinnedInputs(benchDir, workload string, seed int64, digest string) error {
	f, err := os.Open(filepath.Join(benchDir, pinnedInputsFile))
	if err != nil {
		return fmt.Errorf("frozen inputs: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var wl, sum string
		var s int64
		if _, err := fmt.Sscanf(line, "%s %d %s", &wl, &s, &sum); err != nil {
			return fmt.Errorf("frozen inputs: bad line %q: %w", line, err)
		}
		if wl == workload && s == seed && sum != digest {
			return fmt.Errorf("frozen inputs: %s seed %d hashes to %s, %s pins %s: "+
				"the generated inputs changed, so earlier numbers no longer compare",
				workload, seed, digest, pinnedInputsFile, sum)
		}
	}
	return sc.Err()
}
