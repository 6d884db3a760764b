package geom

import "math"

// EarthRadiusMeters is the mean Earth radius used by the haversine helpers.
const EarthRadiusMeters = 6371008.8

// HaversineMeters returns the great-circle distance in metres between two
// lon/lat points expressed in degrees.
func HaversineMeters(a, b Point) float64 {
	lat1 := a.Y * math.Pi / 180
	lat2 := b.Y * math.Pi / 180
	dLat := (b.Y - a.Y) * math.Pi / 180
	dLon := (b.X - a.X) * math.Pi / 180
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(s)))
}

// MetersToDegreesLat converts a metre distance to the equivalent latitude
// span in degrees.
func MetersToDegreesLat(m float64) float64 {
	return m / EarthRadiusMeters * 180 / math.Pi
}

// MetersToDegreesLon converts a metre distance to the equivalent longitude
// span in degrees at latitude lat.
func MetersToDegreesLon(m, lat float64) float64 {
	return m / (EarthRadiusMeters * math.Cos(lat*math.Pi/180)) * 180 / math.Pi
}

// GeometriesIntersect reports whether the two geometries share a point,
// dispatching to the exact predicate where one exists and falling back to
// MBR intersection otherwise.
func GeometriesIntersect(a, b Geometry) bool {
	if !a.MBR().Intersects(b.MBR()) {
		return false
	}
	switch ga := a.(type) {
	case Point:
		return geometryCoversPoint(b, ga)
	case *Polygon:
		switch gb := b.(type) {
		case Point:
			return ga.ContainsPoint(gb)
		case *Polygon:
			return ga.IntersectsPolygon(gb)
		case *LineString:
			return ga.IntersectsLineString(gb)
		case MBR:
			return ga.IntersectsBox(gb)
		}
	case *LineString:
		switch gb := b.(type) {
		case Point:
			return ga.DistanceTo(gb) == 0
		case *Polygon:
			return gb.IntersectsLineString(ga)
		case MBR:
			return ga.IntersectsBox(gb)
		case *LineString:
			return lineStringsIntersect(ga, gb)
		}
	case MBR:
		return b.IntersectsBox(ga)
	}
	return true // MBRs intersect and no exact kernel: conservative yes
}

func geometryCoversPoint(g Geometry, p Point) bool {
	switch gg := g.(type) {
	case Point:
		return gg.Equal(p)
	case MBR:
		return gg.ContainsPoint(p)
	case *Polygon:
		return gg.ContainsPoint(p)
	case *LineString:
		return gg.DistanceTo(p) == 0
	default:
		return g.IntersectsBox(p.MBR())
	}
}

func lineStringsIntersect(a, b *LineString) bool {
	ap, bp := a.Points(), b.Points()
	if len(ap) == 1 {
		return b.DistanceTo(ap[0]) == 0
	}
	if len(bp) == 1 {
		return a.DistanceTo(bp[0]) == 0
	}
	for i := 1; i < len(ap); i++ {
		segBox := Box(ap[i-1].X, ap[i-1].Y, ap[i].X, ap[i].Y)
		if !segBox.Intersects(b.MBR()) {
			continue
		}
		for j := 1; j < len(bp); j++ {
			if SegmentsIntersect(ap[i-1], ap[i], bp[j-1], bp[j]) {
				return true
			}
		}
	}
	return false
}
