// Package geo models the geographic substrate of the testbed: the cloud
// regions used as vantage points (paper Table 3), the platform points of
// presence, and a distance-based round-trip-time model.
//
// The latency model is intentionally simple and physical: great-circle
// distance at two-thirds the speed of light (fiber), times a deterministic
// per-path routing-inflation factor, plus a small fixed per-path base for
// serialization and hop overheads. Trans-Atlantic paths come out at
// ~75 ms RTT and US coast-to-coast at ~60 ms, consistent with the public
// latency statistics the paper cites.
package geo

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"
)

// Zone is a coarse geographic partition used to group vantage points.
type Zone string

const (
	ZoneUS Zone = "US"
	ZoneEU Zone = "EU"
)

// LatLon is a point on the globe in degrees.
type LatLon struct {
	Lat float64
	Lon float64
}

// Region is a named deployment location (cloud region, PoP, or site).
type Region struct {
	Name     string // short name used throughout results, e.g. "US-East"
	Location string // human-readable location, e.g. "Virginia"
	Zone     Zone
	Pos      LatLon
}

func (r Region) String() string { return r.Name }

// The vantage-point regions of paper Table 3, plus the residential site
// hosting the Android devices (east-coast US) and the platform PoP sites.
var (
	USCentral  = Region{"US-Central", "Iowa", ZoneUS, LatLon{41.60, -93.61}}
	USNCentral = Region{"US-NCentral", "Illinois", ZoneUS, LatLon{41.88, -87.63}}
	USSCentral = Region{"US-SCentral", "Texas", ZoneUS, LatLon{29.42, -98.49}}
	USEast     = Region{"US-East", "Virginia", ZoneUS, LatLon{39.04, -77.49}}
	USEast2    = Region{"US-East2", "Virginia", ZoneUS, LatLon{38.90, -77.20}}
	USWest     = Region{"US-West", "California", ZoneUS, LatLon{37.33, -121.89}}
	USWest2    = Region{"US-West2", "California", ZoneUS, LatLon{34.05, -118.24}}

	CH      = Region{"CH", "Switzerland", ZoneEU, LatLon{47.38, 8.54}}
	DE      = Region{"DE", "Denmark", ZoneEU, LatLon{55.68, 12.59}}
	IE      = Region{"IE", "Ireland", ZoneEU, LatLon{53.35, -6.26}}
	NL      = Region{"NL", "Netherlands", ZoneEU, LatLon{52.37, 4.90}}
	FR      = Region{"FR", "France", ZoneEU, LatLon{48.86, 2.35}}
	UKSouth = Region{"UK-South", "London, UK", ZoneEU, LatLon{51.51, -0.13}}
	UKWest  = Region{"UK-West", "Cardiff, UK", ZoneEU, LatLon{51.48, -3.18}}

	// Residential is the east-coast US residential network hosting the
	// two Android devices behind a 50 Mbps WiFi access link.
	Residential = Region{"Residential", "New Jersey", ZoneUS, LatLon{40.74, -74.17}}
)

// USRegions is the US vantage-point fleet of Table 3 in paper order.
// US-East and US-West each provision two VMs (counts handled by the fleet).
var USRegions = []Region{USCentral, USNCentral, USSCentral, USEast, USEast2, USWest, USWest2}

// EURegions is the Europe vantage-point fleet of Table 3 in paper order.
var EURegions = []Region{CH, DE, IE, NL, FR, UKSouth, UKWest}

// PoP sites for platform infrastructure models. These are not vantage
// points; they are where the simulated services terminate media.
var (
	PoPUSEast    = Region{"pop-us-east", "N. Virginia", ZoneUS, LatLon{38.95, -77.45}}
	PoPUSCentral = Region{"pop-us-central", "Iowa", ZoneUS, LatLon{41.26, -95.86}}
	PoPUSWest    = Region{"pop-us-west", "San Jose", ZoneUS, LatLon{37.35, -121.95}}
	PoPEUWest    = Region{"pop-eu-west", "Dublin", ZoneEU, LatLon{53.33, -6.25}}
	PoPEUCentral = Region{"pop-eu-central", "Frankfurt", ZoneEU, LatLon{50.11, 8.68}}
	PoPEUNorth   = Region{"pop-eu-north", "Amsterdam", ZoneEU, LatLon{52.31, 4.76}}
)

// Registry returns every region known to the package, keyed by name.
func Registry() map[string]Region {
	all := []Region{
		USCentral, USNCentral, USSCentral, USEast, USEast2, USWest, USWest2,
		CH, DE, IE, NL, FR, UKSouth, UKWest, Residential,
		PoPUSEast, PoPUSCentral, PoPUSWest, PoPEUWest, PoPEUCentral, PoPEUNorth,
	}
	m := make(map[string]Region, len(all))
	for _, r := range all {
		m[r.Name] = r
	}
	return m
}

// Lookup returns the region with the given name.
func Lookup(name string) (Region, error) {
	r, ok := Registry()[name]
	if !ok {
		return Region{}, fmt.Errorf("geo: unknown region %q", name)
	}
	return r, nil
}

// earthRadiusKm is the mean Earth radius.
const earthRadiusKm = 6371.0

// DistanceKm returns the great-circle distance between two points.
func DistanceKm(a, b LatLon) float64 {
	const degToRad = math.Pi / 180
	// Here and in inflation, a float64 conversion rounds a product
	// before the add or subtract that follows it, so arm64 cannot fuse
	// the two into one multiply-add. The degree conversions count too:
	// the compiler fuses them into the differences below.
	la1, lo1 := float64(a.Lat*degToRad), float64(a.Lon*degToRad)
	la2, lo2 := float64(b.Lat*degToRad), float64(b.Lon*degToRad)
	dla := la2 - la1
	dlo := lo2 - lo1
	h := float64(math.Sin(dla/2)*math.Sin(dla/2)) +
		float64(math.Cos(la1)*math.Cos(la2)*math.Sin(dlo/2)*math.Sin(dlo/2))
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// PathModel converts distance into latency. The zero value is unusable;
// use DefaultPathModel.
type PathModel struct {
	// FiberKmPerMs is the distance light covers per millisecond in fiber
	// (~200 km/ms at 2/3 c).
	FiberKmPerMs float64
	// InflationMin/Max bound the deterministic routing inflation factor
	// applied per path (real routes are never great circles).
	InflationMin, InflationMax float64
	// BaseOneWay is added per direction for serialization/processing.
	BaseOneWay time.Duration
}

// DefaultPathModel is calibrated so that trans-Atlantic RTTs land near
// 75 ms and US coast-to-coast RTTs near 60 ms.
var DefaultPathModel = PathModel{
	FiberKmPerMs: 200,
	InflationMin: 1.15,
	InflationMax: 1.45,
	BaseOneWay:   1500 * time.Microsecond,
}

// inflation returns the deterministic routing-inflation factor for the
// unordered pair (a, b). Hashing the pair keeps the factor stable across
// runs while varying it between paths.
func (m PathModel) inflation(a, b Region) float64 {
	lo, hi := a.Name, b.Name
	if lo > hi {
		lo, hi = hi, lo
	}
	h := fnv.New32a()
	h.Write([]byte(lo))
	h.Write([]byte{0})
	h.Write([]byte(hi))
	u := h.Sum32()
	frac := float64(u%1000) / 999.0
	return m.InflationMin + float64(frac*(m.InflationMax-m.InflationMin))
}

// OneWay returns the one-way propagation delay between two regions.
func (m PathModel) OneWay(a, b Region) time.Duration {
	if a.Name == b.Name {
		// Intra-site: sub-millisecond datacenter latency.
		return 250 * time.Microsecond
	}
	km := DistanceKm(a.Pos, b.Pos)
	ms := km / m.FiberKmPerMs * m.inflation(a, b)
	return m.BaseOneWay + time.Duration(ms*float64(time.Millisecond))
}

// RTT returns the round-trip time between two regions.
func (m PathModel) RTT(a, b Region) time.Duration {
	return 2 * m.OneWay(a, b)
}

// Nearest returns the candidate region closest to from, by one-way delay.
// It panics if candidates is empty (a programming error in topology setup).
func (m PathModel) Nearest(from Region, candidates []Region) Region {
	if len(candidates) == 0 {
		panic("geo: Nearest with no candidates")
	}
	best := candidates[0]
	bestD := m.OneWay(from, best)
	for _, c := range candidates[1:] {
		if d := m.OneWay(from, c); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}
