// Package core is the paper's primary contribution rebuilt as a library:
// the controlled, reproducible benchmarking harness of §3. It provisions
// the vantage-point fleet (Table 3), coordinates sessions across the
// platform models, and implements one experiment runner per table and
// figure of the evaluation (§4-§5). The QoE sweeps (Figs 12-18, Table 1
// and the §6 extensions) are declared as Campaign grids and executed by
// the campaign-matrix engine in campaign.go; Experiments() in
// experiments.go remains the index of every rendered artifact.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/vcabench/vcabench/internal/capture"
	"github.com/vcabench/vcabench/internal/client"
	"github.com/vcabench/vcabench/internal/diag"
	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/kit"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/obs"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/simnet"
)

// Testbed couples the simulated network with the platforms under test —
// the stand-in for the paper's Azure subscription.
type Testbed struct {
	Sim  *simnet.Sim
	Net  *simnet.Network
	seed int64

	platforms map[platform.Kind]*platform.Platform
	nameSeq   int

	// parallelism is the campaign worker count (see scheduler.go).
	parallelism int

	// mu guards storeErr and diagDocs. Today runMemoized only touches
	// them from the caller's goroutine (before dispatch and after the
	// pool drains); the lock keeps them safe if experiment drivers ever
	// run concurrently.
	mu sync.Mutex

	// store caches every resolved unit result, encoded, under its full
	// cell key: an in-process memStore unless WithStore attached a
	// persistent one. storeErr records the first failed persist
	// (guarded by mu). See cellstore.go.
	store    CellStore
	storeErr error

	// dispatcher, when set via WithDispatcher, offloads campaign cells
	// to a worker fleet; nil means every unit computes in-process. See
	// dispatch.go.
	dispatcher Dispatcher

	// tel, when set via WithTelemetry, receives metrics and spans from
	// the scheduler; em caches its engine instruments. Both nil means
	// unobserved — every hook is a no-op. See telemetry.go.
	tel *obs.Telemetry
	em  *engineMetrics

	// diag arms the sim-time flight recorder (see diagnostics.go):
	// diagRec is this testbed's own recorder (per campaign unit on
	// forks), diagDocs the root testbed's harvest of finalized
	// documents, keyed by unit key and guarded by mu.
	diag     bool
	diagRec  *diag.Recorder
	diagDocs map[string]*diag.CellDiag

	// kit is the storage of the scheduler worker running this fork
	// (see Scheduler.Run and parkedKits), so storage passes from cell to
	// cell and from run to run with one owner at a time. The fork's
	// simulator and network run on kit.Sim from the start (forkOn); its
	// study lends the rest to its scorer and clients, and hands the
	// traces, the packets and the simulator's storage back only when it
	// ends (endStudy): a packet may sit in a pending event after its
	// session. Fork does not copy it, and the zero kit (any testbed that
	// is not a scheduler fork) means each study runs on private storage.
	kit kit.Kit
}

// NewTestbed creates a testbed seeded for reproducibility. The core
// network carries mild distance-dependent loss (~0.2% per 100 ms of
// one-way propagation), which is what makes cross-continental relay
// detours cost quality and not just latency (the mechanism behind
// Meet's European QoE edge in Fig 16).
func NewTestbed(seed int64) *Testbed { return newTestbed(seed, kit.Kit{}) }

// newTestbed is NewTestbed on a worker's kit.
func newTestbed(seed int64, k kit.Kit) *Testbed {
	sim := simnet.NewSimOn(seed, k.Sim)
	return &Testbed{
		kit:         k,
		Sim:         sim,
		Net:         simnet.NewNetwork(sim, simnet.NetworkConfig{DistLossPer100ms: 0.002}),
		seed:        seed,
		platforms:   make(map[platform.Kind]*platform.Platform),
		parallelism: runtime.GOMAXPROCS(0),
		store:       new(memStore),
	}
}

// endStudy ends the storage lifetime of a study whose every read is
// done: each client's trace and sent packets (client.Release) and, on a
// worker's kit, the simulator's events and packets (simnet.Sim.Release),
// after which the fork's simulator never runs again. A testbed on
// private storage keeps its simulator for another study.
func (tb *Testbed) endStudy(clients []*client.Client) {
	for _, c := range clients {
		c.Release()
	}
	if tb.kit.Sim != nil {
		tb.Sim.Release()
	}
}

// Seed returns the base seed the testbed (and every fork's shard seed)
// derives from.
func (tb *Testbed) Seed() int64 { return tb.seed }

// Platform returns (instantiating on first use) the given service or
// platform variant. A variant shares its base platform's node names, so
// one testbed runs at most one profile per base platform: measure
// "zoom" and "zoom@relay" on separate forks, as campaign units do.
func (tb *Testbed) Platform(k platform.Kind) *platform.Platform {
	if p, ok := tb.platforms[k]; ok {
		return p
	}
	for other := range tb.platforms {
		if other.Base() == k.Base() {
			panic("core: testbed already runs a " + string(k.Base()) + " profile; run " + string(k) + " on its own fork")
		}
	}
	p := platform.New(k, tb.Net)
	if tb.diagRec != nil {
		p.SetRateProbe(tb.rateProbe(string(k)))
	}
	tb.platforms[k] = p
	return p
}

// Resolver maps any platform endpoint to its service IP and everything
// else to the default hash addressing.
func (tb *Testbed) Resolver() client.Resolver {
	return func(node string) (capture.IPv4, bool) {
		for _, p := range tb.platforms {
			if ip, ok := p.Resolve(node); ok {
				return ip, true
			}
		}
		return capture.IPv4{}, false
	}
}

// uniqueName produces a collision-free node name.
func (tb *Testbed) uniqueName(prefix string) string {
	tb.nameSeq++
	return fmt.Sprintf("%s-%d", prefix, tb.nameSeq)
}

// Scale sets experiment cost. Paper scale reproduces the full campaign;
// Quick preserves every relative result at a fraction of the compute;
// Tiny is for unit tests.
type Scale struct {
	Name string
	// Lag studies (Figs 2-11).
	LagSessions      int
	LagDur           time.Duration
	ProbesPerSession int
	// QoE studies (Figs 12-18).
	QoESessions int
	QoEDur      time.Duration
	QoEStride   int // score every k-th frame
	// Media profile for generated feeds.
	Profile media.Profile
}

// Predefined scales.
var (
	PaperScale = Scale{
		Name:        "paper",
		LagSessions: 20, LagDur: 2 * time.Minute, ProbesPerSession: 100,
		QoESessions: 5, QoEDur: 5 * time.Minute, QoEStride: 10,
		Profile: media.PaperProfile,
	}
	QuickScale = Scale{
		Name:        "quick",
		LagSessions: 4, LagDur: 25 * time.Second, ProbesPerSession: 12,
		QoESessions: 2, QoEDur: 12 * time.Second, QoEStride: 4,
		Profile: media.QuickProfile,
	}
	TinyScale = Scale{
		Name:        "tiny",
		LagSessions: 2, LagDur: 12 * time.Second, ProbesPerSession: 5,
		QoESessions: 1, QoEDur: 8 * time.Second, QoEStride: 5,
		Profile: media.QuickProfile,
	}
)

// ScaleByName maps a predefined scale's name ("tiny", "quick",
// "paper") to the scale, for CLI flags and service requests.
func ScaleByName(name string) (Scale, bool) {
	for _, sc := range []Scale{TinyScale, QuickScale, PaperScale} {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scale{}, false
}

// USLagFleet returns the six non-host US vantage points for a given host
// (Table 3: seven VMs, the host plus six participants).
func USLagFleet(host geo.Region) []geo.Region {
	var out []geo.Region
	for _, r := range geo.USRegions {
		if r.Name != host.Name {
			out = append(out, r)
		}
	}
	return out
}

// EULagFleet is the European counterpart.
func EULagFleet(host geo.Region) []geo.Region {
	var out []geo.Region
	for _, r := range geo.EURegions {
		if r.Name != host.Name {
			out = append(out, r)
		}
	}
	return out
}

// QoEReceiverRegions returns the paper's §4.3 receiver mix: for the US
// study, VMs in US-East and US-West; for Europe, the §4.3.2 set.
func QoEReceiverRegions(zone geo.Zone, n int) []geo.Region {
	var pool []geo.Region
	if zone == geo.ZoneUS {
		pool = []geo.Region{geo.USWest, geo.USEast2, geo.USWest2, geo.USEast, geo.USCentral}
	} else {
		pool = []geo.Region{geo.FR, geo.DE, geo.IE, geo.UKSouth, geo.UKWest}
	}
	out := make([]geo.Region, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pool[i%len(pool)])
	}
	return out
}
