package convert_test

import (
	"testing"

	"st4ml/internal/convert"
	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/instance"
	"st4ml/internal/tempo"
)

// Trajectory conversion microbenchmarks at the benchmark spine's grid
// sizes: a 20×20 speed grid over the Porto extent and a 10×10×24
// transition raster over a spine-sized query window, on the Porto
// trajectories that window selects, one row per allocation method,
// reporting ns/trajectory.

type portoTraj = instance.Trajectory[instance.Unit, int64]

const benchTrajs = 2000

// spineWindow is 15% of the Porto extent and of the year on each axis, the
// spine's window size, centred on p.
func spineWindow(p geom.Point) (geom.MBR, tempo.Duration) {
	e, y := datagen.PortoExtent, datagen.Year2013
	w, h := 0.15*e.Width(), 0.15*e.Height()
	span := int64(0.15 * float64(y.Seconds()))
	return geom.Box(p.X-w/2, p.Y-h/2, p.X+w/2, p.Y+h/2), tempo.New(y.Start+2*span, y.Start+3*span)
}

// portoTrajs returns up to benchTrajs Porto trajectories that meet the
// spine window, and that window.
func portoTrajs(b *testing.B) ([]portoTraj, geom.MBR, tempo.Duration) {
	b.Helper()
	recs := datagen.Porto(40*benchTrajs, 7)
	space, window := spineWindow(recs[0].Points[0])
	var trajs []portoTraj
	for _, r := range recs {
		if tr := r.ToTrajectory(); tr.Intersects(space, window) && len(trajs) < benchTrajs {
			trajs = append(trajs, tr)
		}
	}
	return trajs, space, window
}

func parallelize(trajs []portoTraj) *engine.RDD[portoTraj] {
	return engine.Parallelize(engine.New(engine.Config{Slots: 2}), trajs, 2)
}

var benchMethods = []convert.Method{convert.Naive, convert.Regular, convert.RTree, convert.Auto}

func count(in []portoTraj) int { return len(in) }

func reportPerTraj(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/traj")
}

func BenchmarkTrajToSpatialMap(b *testing.B) {
	trajs, _, _ := portoTrajs(b)
	r := parallelize(trajs)
	tgt := convert.SpatialGridTarget(instance.SpatialGrid{Extent: datagen.PortoExtent, NX: 20, NY: 20})
	for _, m := range benchMethods {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				convert.TrajToSpatialMap(r, tgt, m, count).Collect()
			}
			reportPerTraj(b, len(trajs))
		})
	}
}

func BenchmarkTrajToRaster(b *testing.B) {
	trajs, space, window := portoTrajs(b)
	r := parallelize(trajs)
	tgt := convert.RasterGridTarget(instance.RasterGrid{
		Space: instance.SpatialGrid{Extent: space, NX: 10, NY: 10},
		Time:  instance.TimeGrid{Window: window, NT: 24},
	})
	for _, m := range benchMethods {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				convert.TrajToRaster(r, tgt, m, count).Collect()
			}
			reportPerTraj(b, len(trajs))
		})
	}
}
