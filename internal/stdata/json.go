package stdata

import (
	"strconv"

	"st4ml/internal/geom"
	"st4ml/internal/jsonenc"
)

// This file is each standard schema's hand-written JSON encoder, the
// Spec.AppendJSON of its registration: the record's exported fields in
// declaration order under their Go names, byte-identical to json.Marshal
// of the record (FuzzRecordJSON holds the two together), with no
// reflection and no intermediate allocation.

func appendPointJSON(dst []byte, p geom.Point) ([]byte, error) {
	dst = append(dst, `{"X":`...)
	dst, err := jsonenc.AppendFloat(dst, p.X)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"Y":`...)
	dst, err = jsonenc.AppendFloat(dst, p.Y)
	return append(dst, '}'), err
}

func appendEventJSON(dst []byte, e EventRec) ([]byte, error) {
	dst = append(dst, `{"ID":`...)
	dst = strconv.AppendInt(dst, e.ID, 10)
	dst = append(dst, `,"Loc":`...)
	dst, err := appendPointJSON(dst, e.Loc)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"Time":`...)
	dst = strconv.AppendInt(dst, e.Time, 10)
	dst = append(dst, `,"Aux":`...)
	dst = jsonenc.AppendString(dst, e.Aux, true)
	return append(dst, '}'), nil
}

// appendTrajJSON encodes a TrajRec: nil Points or Times encode as
// null, empty ones as [].
func appendTrajJSON(dst []byte, t TrajRec) ([]byte, error) {
	dst = append(dst, `{"ID":`...)
	dst = strconv.AppendInt(dst, t.ID, 10)
	dst = append(dst, `,"Points":`...)
	if t.Points == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, p := range t.Points {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendPointJSON(dst, p); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"Times":`...)
	if t.Times == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, ts := range t.Times {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, ts, 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

func appendAirJSON(dst []byte, a AirRec) ([]byte, error) {
	dst = append(dst, `{"StationID":`...)
	dst = strconv.AppendInt(dst, a.StationID, 10)
	dst = append(dst, `,"Loc":`...)
	dst, err := appendPointJSON(dst, a.Loc)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"Time":`...)
	dst = strconv.AppendInt(dst, a.Time, 10)
	dst = append(dst, `,"Indices":[`...)
	for i, v := range a.Indices {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = jsonenc.AppendFloat(dst, v); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}"...), nil
}

func appendPOIJSON(dst []byte, p POIRec) ([]byte, error) {
	dst = append(dst, `{"ID":`...)
	dst = strconv.AppendInt(dst, p.ID, 10)
	dst = append(dst, `,"Loc":`...)
	dst, err := appendPointJSON(dst, p.Loc)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"Type":`...)
	dst = jsonenc.AppendString(dst, p.Type, true)
	return append(dst, '}'), nil
}
