package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/geom"
	"st4ml/internal/index"
	"st4ml/internal/tempo"
)

// xrec is an extended record: a corner, an instant, and the offsets to the
// opposite corner and the end time, so its ST box is a true box the shared
// columns alone do not give — a trajectory's shape, small enough to check
// by hand.
type xrec struct {
	ID    int64
	P     geom.Point
	T     int64
	DX    float64
	DY    float64
	DT    int64
	Extra bool // xrecBadWriterC writes a stray byte into this record's payload
}

func xrecBoxOf(x, y float64, t int64, dx, dy float64, dt int64) index.Box {
	return index.Box3(geom.Box(x, y, x+dx, y+dy), tempo.New(t, t+dt))
}

func xrecBox(v xrec) index.Box { return xrecBoxOf(v.P.X, v.P.Y, v.T, v.DX, v.DY, v.DT) }

// xrecCodec returns the extended schema: the corner and instant on the
// shared columns, the offsets in the payload, and an Extent reading them
// back without building the record. bad writes a stray byte after the
// offsets of every record marked Extra; withExtent false leaves Extent
// unset, the schema every extended record had before it.
func xrecCodec(bad, withExtent bool) codec.Codec[xrec] {
	c := codec.Codec[xrec]{
		Enc: func(w *codec.Writer, v xrec) {
			w.PutVarint(v.ID)
			codec.PointC.Enc(w, v.P)
			w.PutVarint(v.T)
			w.PutFloat64(v.DX)
			w.PutFloat64(v.DY)
			w.PutVarint(v.DT)
		},
		Dec: func(r *codec.Reader) xrec {
			return xrec{ID: r.Varint(), P: codec.PointC.Dec(r), T: r.Varint(),
				DX: r.Float64(), DY: r.Float64(), DT: r.Varint()}
		},
		Col: &codec.Columnar[xrec]{
			Split: func(v xrec, b *codec.ColBlock) {
				b.IDs = append(b.IDs, v.ID)
				b.Lon = append(b.Lon, v.P.X)
				b.Lat = append(b.Lat, v.P.Y)
				b.T = append(b.T, v.T)
				b.Pay.PutFloat64(v.DX)
				b.Pay.PutFloat64(v.DY)
				b.Pay.PutVarint(v.DT)
				if bad && v.Extra {
					b.Pay.PutUvarint(1)
				}
			},
			Join: func(b *codec.ColBlock, i int, pay *codec.Reader) xrec {
				return xrec{ID: b.IDs[i], P: geom.Pt(b.Lon[i], b.Lat[i]), T: b.T[i],
					DX: pay.Float64(), DY: pay.Float64(), DT: pay.Varint()}
			},
		},
	}
	if withExtent {
		c.Col.Extent = func(b *codec.ColBlock, i int, pay *codec.Reader) index.Box {
			return xrecBoxOf(b.Lon[i], b.Lat[i], b.T[i], pay.Float64(), pay.Float64(), pay.Varint())
		}
	}
	return c
}

var (
	xrecC          = xrecCodec(false, true)
	xrecNoExtentC  = xrecCodec(false, false)
	xrecBadWriterC = xrecCodec(true, true)
)

// xrecParts draws two partitions of extended records over [0,100)² ×
// [0,10000), each box up to 3 units wide and 300 s long, in a locally
// sorted order so blocks have tight but overlapping footer bounds.
func xrecParts(rng *rand.Rand, perPart int) [][]xrec {
	parts := make([][]xrec, 2)
	for p := range parts {
		for i := 0; i < perPart; i++ {
			parts[p] = append(parts[p], xrec{
				ID: int64(p*perPart + i),
				P:  geom.Pt(float64(p*50)+float64(i)*50/float64(perPart)+rng.Float64()*5, rng.Float64()*100),
				T:  int64(i)*10000/int64(perPart) + rng.Int63n(500),
				DX: rng.Float64() * 3, DY: rng.Float64()*3 - 1.5, DT: rng.Int63n(300),
			})
		}
	}
	return parts
}

// xrecWindows derives window sets from the records' own boxes: a record's
// box (the window's faces are the record's), a window touching a box only
// at its high corner, a degenerate point window on a low corner, a
// three-window union, a wide random window, and a disjoint window.
func xrecWindows(rng *rand.Rand, parts [][]xrec) map[string][]index.Box {
	pick := func() index.Box {
		part := parts[rng.Intn(len(parts))]
		return xrecBox(part[rng.Intn(len(part))])
	}
	b := pick()
	touch := index.Box{Min: b.Max, Max: b.Max}
	for a := range touch.Max {
		touch.Max[a] += 2
	}
	c := pick()
	x, y, t := rng.Float64()*80, rng.Float64()*80, rng.Float64()*8000
	return map[string][]index.Box{
		"record-faces": {pick()},
		"corner-touch": {touch},
		"degenerate":   {{Min: c.Min, Max: c.Min}},
		"union":        {pick(), pick(), pick()},
		"wide":         {{Min: [index.Dims]float64{x, y, t}, Max: [index.Dims]float64{x + 20, y + 20, t + 2000}}},
		"disjoint":     {{Min: [index.Dims]float64{500, 500, 0}, Max: [index.Dims]float64{600, 600, 1e6}}},
	}
}

// TestExtentPrunedEqualsFiltered is the extent wall's storage half: for an
// extended-record schema with a Columnar.Extent, a windowed read returns
// exactly the full read filtered by Box.Intersects against the windows,
// record for record and in order, over block sizes 1, 16 and 512 and
// windows on record faces and corners, degenerate, unioned and disjoint
// windows. The extent test must actually prune (RecordsPruned > 0 where a
// scanned block holds a missed record), must never decode more payload
// than the full read, and must agree with the same schema read without an
// Extent, which prunes blocks only.
func TestExtentPrunedEqualsFiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	parts := xrecParts(rng, 700)
	for _, blockRecords := range []int{1, 16, 512} {
		dir := t.TempDir()
		meta, err := Write(dir, xrecC, parts, xrecBox, WriteOptions{Name: "xrec", BlockRecords: blockRecords})
		if err != nil {
			t.Fatal(err)
		}
		recordsPruned := int64(0)
		for wi := 0; wi < 6; wi++ {
			for kind, windows := range xrecWindows(rng, parts) {
				for p := range parts {
					name := fmt.Sprintf("b%d/%s#%d/part%d", blockRecords, kind, wi, p)
					full, fullSt, err := ReadPartitionPruned(dir, meta, p, xrecC, nil)
					if err != nil {
						t.Fatalf("%s: full read: %v", name, err)
					}
					var want []xrec
					for _, v := range full {
						if boxIntersectsAny(xrecBox(v), windows) {
							want = append(want, v)
						}
					}
					got, st, err := ReadPartitionPruned(dir, meta, p, xrecC, windows)
					if err != nil {
						t.Fatalf("%s: pruned read: %v", name, err)
					}
					if !sameXrecs(got, want) {
						t.Fatalf("%s: pruned read returned %d records, filtered full read %d",
							name, len(got), len(want))
					}
					blocksOnly, bst, err := ReadPartitionPruned(dir, meta, p, xrecNoExtentC, windows)
					if err != nil {
						t.Fatalf("%s: read without Extent: %v", name, err)
					}
					if bst.RecordsPruned != 0 || int64(len(blocksOnly)) != int64(len(got))+st.RecordsPruned {
						t.Fatalf("%s: without Extent %d records (%d pruned); with it %d kept + %d pruned",
							name, len(blocksOnly), bst.RecordsPruned, len(got), st.RecordsPruned)
					}
					if st.RawBytes > fullSt.RawBytes {
						t.Fatalf("%s: pruned read decoded %d bytes, full read %d", name, st.RawBytes, fullSt.RawBytes)
					}
					recordsPruned += st.RecordsPruned
				}
			}
		}
		if blockRecords > 1 && recordsPruned == 0 {
			t.Errorf("b%d: the extent test pruned no record", blockRecords)
		}
	}
}

// sameXrecs reports whether a and b hold equal records in the same order,
// a nil and an empty slice alike.
func sameXrecs(a, b []xrec) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// xrecLine is one block of records strung along the x axis, record k's box
// spanning [10k, 10k+1]; record 3 is marked Extra.
func xrecLine() []xrec {
	out := make([]xrec, 8)
	for k := range out {
		out[k] = xrec{ID: int64(k), P: geom.Pt(float64(10*k), 0), T: 100, DX: 1, DY: 1, DT: 1, Extra: k == 3}
	}
	return out
}

// writeXrecBad writes xrecLine through xrecBadWriterC — so the stray byte
// sits inside a correctly checksummed block — and returns the dataset.
func writeXrecBad(t testing.TB) (string, *Metadata) {
	t.Helper()
	dir := t.TempDir()
	meta, err := Write(dir, xrecBadWriterC, [][]xrec{xrecLine()}, xrecBox,
		WriteOptions{Name: "xrec-bad", BlockRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	return dir, meta
}

// TestExtentCorruptPrunedRecordErrors pins that the extent test keeps the
// payload checks Join has: a record whose span holds a byte the schema
// does not consume fails the read even when the window prunes the record,
// so a windowed read can never pass bytes a full read rejects.
func TestExtentCorruptPrunedRecordErrors(t *testing.T) {
	dir, meta := writeXrecBad(t)
	line := xrecLine()
	for name, windows := range map[string][]index.Box{
		"full":    nil,
		"pruned":  {xrecBox(line[5])},
		"pruned2": {xrecBox(line[0]), xrecBox(line[7])},
	} {
		if _, _, err := ReadPartitionPruned(dir, meta, 0, xrecC, windows); err == nil {
			t.Errorf("%s: a stray payload byte in record 3 went undetected", name)
		}
	}
	// The same windows over a clean file read fine, so the errors above
	// are the stray byte's.
	clean := t.TempDir()
	cm, err := Write(clean, xrecC, [][]xrec{line}, xrecBox, WriteOptions{BlockRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := ReadPartitionPruned(clean, cm, 0, xrecC, []index.Box{xrecBox(line[5])})
	if err != nil || len(got) != 1 || got[0].ID != 5 || st.RecordsPruned != 7 {
		t.Fatalf("clean file: %d records, %d pruned, err %v; want record 5 alone, 7 pruned",
			len(got), st.RecordsPruned, err)
	}
}

// xrecFuzzSeed returns a clean extended-record partition file of two
// 4-record blocks, its metadata, and the bytes of the same records written
// with record 3's stray byte, for FuzzV3Block.
func xrecFuzzSeed(t testing.TB) (clean []byte, meta *Metadata, bad []byte) {
	t.Helper()
	read := func(dir string, m *Metadata) []byte {
		raw, err := os.ReadFile(filepath.Join(dir, m.Partitions[0].File))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	dir := t.TempDir()
	meta, err := Write(dir, xrecC, [][]xrec{xrecLine()}, xrecBox, WriteOptions{Name: "xrec", BlockRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	badDir := t.TempDir()
	bm, err := Write(badDir, xrecBadWriterC, [][]xrec{xrecLine()}, xrecBox, WriteOptions{Name: "xrec", BlockRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	return read(dir, meta), meta, read(badDir, bm)
}
