package stdata

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"st4ml/internal/geom"
)

// CSV readers for external data in the standard schemas — the
// "transform their datasets from external storage into ST4ML's data
// standard" path of §3.1. Formats:
//
//	events:       id,lon,lat,time[,aux]
//	trajectories: id,"lon lat lon lat ...","t t t ..."
//
// A header row is detected (non-numeric first field) and skipped.

// ReadEventsCSV parses event records.
func ReadEventsCSV(r io.Reader) ([]EventRec, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true
	var out []EventRec
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("stdata: events csv: %w", err)
		}
		line++
		if len(rec) < 4 {
			return nil, fmt.Errorf("stdata: events csv line %d: need >= 4 fields", line)
		}
		id, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			if line == 1 {
				continue // header
			}
			return nil, fmt.Errorf("stdata: events csv line %d: bad id %q", line, rec[0])
		}
		lon, err1 := strconv.ParseFloat(rec[1], 64)
		lat, err2 := strconv.ParseFloat(rec[2], 64)
		t, err3 := strconv.ParseInt(rec[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("stdata: events csv line %d: bad coordinates/time", line)
		}
		e := EventRec{ID: id, Loc: geom.Pt(lon, lat), Time: t}
		if len(rec) > 4 {
			e.Aux = rec[4]
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("stdata: events csv: no records")
	}
	return out, nil
}

// ReadTrajsCSV parses trajectory records with space-separated coordinate
// and timestamp lists.
func ReadTrajsCSV(r io.Reader) ([]TrajRec, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	cr.TrimLeadingSpace = true
	var out []TrajRec
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("stdata: trajs csv: %w", err)
		}
		line++
		id, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			if line == 1 {
				continue // header
			}
			return nil, fmt.Errorf("stdata: trajs csv line %d: bad id %q", line, rec[0])
		}
		coords := strings.Fields(rec[1])
		if len(coords)%2 != 0 {
			return nil, fmt.Errorf("stdata: trajs csv line %d: odd coordinate count", line)
		}
		pts := make([]geom.Point, len(coords)/2)
		for i := range pts {
			x, err1 := strconv.ParseFloat(coords[2*i], 64)
			y, err2 := strconv.ParseFloat(coords[2*i+1], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("stdata: trajs csv line %d: bad coordinate", line)
			}
			pts[i] = geom.Pt(x, y)
		}
		tsFields := strings.Fields(rec[2])
		if len(tsFields) != len(pts) {
			return nil, fmt.Errorf("stdata: trajs csv line %d: %d points but %d timestamps",
				line, len(pts), len(tsFields))
		}
		times := make([]int64, len(tsFields))
		for i, f := range tsFields {
			t, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("stdata: trajs csv line %d: bad timestamp %q", line, f)
			}
			times[i] = t
		}
		if len(pts) == 0 {
			return nil, fmt.Errorf("stdata: trajs csv line %d: empty trajectory", line)
		}
		out = append(out, TrajRec{ID: id, Points: pts, Times: times})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("stdata: trajs csv: no records")
	}
	return out, nil
}
