// Package vcabench is a controlled, reproducible benchmarking harness for
// videoconferencing systems, reproducing "Can You See Me Now? A
// Measurement Study of Zoom, Webex, and Meet" (IMC 2021).
//
// The public API is a facade over the internal packages:
//
//   - NewTestbed provisions the simulated vantage-point fleet and the
//     three platform models (Zoom, Webex, Meet).
//   - Run executes any of the paper's tables/figures by ID and renders
//     the result; List enumerates them.
//   - RunLagStudy and RunQoEStudy expose the two underlying experiment
//     engines for custom scenarios.
//
// A minimal session:
//
//	tb := vcabench.NewTestbed(1)
//	res := vcabench.RunLagStudy(tb, vcabench.Zoom, vcabench.USEast,
//	    vcabench.USLagFleet(vcabench.USEast), vcabench.QuickScale)
//	fmt.Println(res.Lags["US-West"].Median())
//
// Campaign experiments (the lag figures, the Figs 12-18 sweeps, the
// ablations) shard their independent units across a worker pool of
// Parallelism() workers — default runtime.GOMAXPROCS(0). Each unit runs
// on a testbed fork whose seed derives from the unit's canonical key,
// so rendered output is byte-identical at any worker count; only
// wall-clock time changes. Use NewTestbedParallel, RunParallel or
// Testbed.SetParallelism to pin the pool size (1 means serial).
//
// Everything is deterministic for a given seed, uses only the standard
// library, and runs in virtual time.
package vcabench

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"github.com/vcabench/vcabench/internal/cluster"
	"github.com/vcabench/vcabench/internal/core"
	"github.com/vcabench/vcabench/internal/diag"
	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/obs"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/report"
	"github.com/vcabench/vcabench/internal/store"
	"github.com/vcabench/vcabench/internal/trace"
)

// Re-exported platform identities.
const (
	Zoom  = platform.Zoom
	Webex = platform.Webex
	Meet  = platform.Meet
)

// Kinds lists the platforms under test in the paper's order.
var Kinds = platform.Kinds

// Re-exported core types.
type (
	// Testbed is the simulated measurement infrastructure.
	Testbed = core.Testbed
	// Scale selects experiment cost (paper / quick / tiny).
	Scale = core.Scale
	// LagStudyResult carries Figs 2-11 data for one scenario.
	LagStudyResult = core.LagStudyResult
	// QoEStudyResult carries Figs 12-18 data for one cell.
	QoEStudyResult = core.QoEStudyResult
	// QoEOpts tunes QoE studies (bandwidth caps, audio).
	QoEOpts = core.QoEOpts
	// Experiment is one reproducible paper artifact.
	Experiment = core.Experiment
	// Region is a geographic vantage point or PoP.
	Region = geo.Region
	// Scheduler fans independent campaign units across a worker pool.
	Scheduler = core.Scheduler
	// Unit is one independent campaign shard for the Scheduler.
	Unit = core.Unit
	// Campaign declares a QoE sweep as a grid of axis values.
	Campaign = core.Campaign
	// Geometry places a campaign cell's host and receiver pool.
	Geometry = core.Geometry
	// Netem is a receiver-side last-mile impairment condition.
	Netem = core.Netem
	// Trace is a time-varying downlink impairment schedule: named
	// (at, cap, loss, extra delay) steps replayed over session time.
	Trace = trace.Trace
	// TraceStep is one schedule point of a Trace.
	TraceStep = trace.Step
	// TraceSpec declares a trace on a campaign's Traces axis: explicit
	// steps or one of the square/sawtooth/step-down generators.
	TraceSpec = trace.Spec
	// SquareTrace parameterizes a square-wave (or, with Once, a single
	// drop/recover pulse) trace generator.
	SquareTrace = trace.SquareSpec
	// SawtoothTrace parameterizes a repeating descending-ramp generator.
	SawtoothTrace = trace.SawtoothSpec
	// StepDownTrace parameterizes a play-once descending-ladder generator.
	StepDownTrace = trace.StepDownSpec
	// RatePoint is one bin of a trace-driven cell's rate-over-time series.
	RatePoint = core.RatePoint
	// CampaignResult aggregates a campaign run (JSON-encodable).
	CampaignResult = core.CampaignResult
	// CellResult is one campaign grid point's outcome.
	CellResult = core.CellResult
	// CellReplica is one replica's metric summaries within a
	// replicated cell (Campaign.Repeats > 1).
	CellReplica = core.CellReplica
	// Metric summarizes one sample of a cell result; on replicated
	// cells it carries reps/stderr/ci95 aggregation fields.
	Metric = core.Metric
	// CellStore persists encoded campaign-unit results across
	// processes (see Testbed.WithStore and OpenStore).
	CellStore = core.CellStore
	// Store is the on-disk CellStore implementation: content-addressed
	// entries, atomic writes, corruption-tolerant reads, LRU front.
	Store = store.Store
	// StoreStats counts store hits, misses, puts and corrupt entries.
	StoreStats = store.Stats
	// Dispatcher executes campaign cells out of process (see NewPool
	// and Testbed.WithDispatcher).
	Dispatcher = core.Dispatcher
	// UnitRequest identifies one campaign cell for remote execution.
	UnitRequest = core.UnitRequest
	// Pool is a fleet of vcabenchd workers acting as one Dispatcher:
	// key-affine sharding, bounded in-flight requests per worker,
	// health probing, retry with backoff, failover to local execution.
	Pool = cluster.Pool
	// PoolOptions tunes a Pool; the zero value selects the defaults.
	PoolOptions = cluster.Options
	// PoolStats counts pool traffic (remote units, errors, fallbacks).
	PoolStats = cluster.Stats
	// Telemetry bundles the observability seams — metrics registry,
	// span tracer, clock — that a Testbed, Store or Pool reports
	// through (see Testbed.WithTelemetry). Telemetry never changes
	// results, only records how they were produced.
	Telemetry = obs.Telemetry
	// MetricsRegistry collects counters, gauges and histograms and
	// renders them in Prometheus text exposition format (WriteText).
	MetricsRegistry = obs.Registry
	// Tracer records campaign execution spans (campaign → cell →
	// replica → unit → store/dispatch/local-run); export with
	// WriteJSONL, summarize per tier with Summary.
	Tracer = obs.Tracer
	// Clock is the monotonic time source telemetry reads through.
	Clock = obs.Clock
	// StoreOptions tunes OpenStoreOptions (LRU bound, telemetry).
	StoreOptions = store.Options
	// CellDiag is one campaign cell's flight-recorder document:
	// sim-time-binned per-pipe series (throughput, queuing delay,
	// queue occupancy, drops by cause), event-queue depth, and a
	// discrete event log (rate-ladder switches, trace steps, FEC
	// recoveries, freezes). Unlike Telemetry, which records walltime
	// facts about how a run was produced, CellDiag records sim-time
	// facts about what the simulation did — it is byte-identical
	// across worker counts and cache temperatures for a given cell.
	// See Testbed.WithDiagnostics, RunOpts.Diagnostics and
	// EncodeDiag/DecodeDiag.
	CellDiag = diag.CellDiag
)

// Scales.
var (
	PaperScale = core.PaperScale
	QuickScale = core.QuickScale
	TinyScale  = core.TinyScale
)

// Common vantage points (see the geo package for the full Table-3 fleet).
var (
	USEast = geo.USEast
	USWest = geo.USWest
	UKWest = geo.UKWest
	CH     = geo.CH
)

// Motion classes for QoE studies.
const (
	LowMotion  = media.LowMotion
	HighMotion = media.HighMotion
)

// NewTestbed provisions a deterministic testbed with the default
// campaign parallelism, runtime.GOMAXPROCS(0).
func NewTestbed(seed int64) *Testbed { return core.NewTestbed(seed) }

// NewTestbedParallel provisions a testbed with an explicit campaign
// worker count; workers == 0 selects the default and negative counts
// panic. Worker count never changes results, only wall-clock time.
func NewTestbedParallel(seed int64, workers int) *Testbed {
	return core.NewTestbed(seed).SetParallelism(workers)
}

// USLagFleet and EULagFleet build the Table-3 participant sets for a host.
func USLagFleet(host Region) []Region { return core.USLagFleet(host) }
func EULagFleet(host Region) []Region { return core.EULagFleet(host) }

// RunLagStudy measures streaming lag, endpoint RTTs and endpoint churn
// (the §4.2 methodology) for one platform and host placement.
func RunLagStudy(tb *Testbed, kind platform.Kind, host Region, fleet []Region, sc Scale) *LagStudyResult {
	return core.RunLagStudy(tb, kind, host, fleet, sc)
}

// RunQoEStudy measures video/audio QoE and data rates (the §4.3-4.4
// methodology) for one platform, host placement and receiver set.
func RunQoEStudy(tb *Testbed, kind platform.Kind, host Region, recvs []Region,
	motion media.MotionClass, sc Scale, opts QoEOpts) *QoEStudyResult {
	return core.RunQoEStudy(tb, kind, host, recvs, motion, sc, opts)
}

// RunCampaign expands a declarative campaign grid and executes every
// cell through the store-backed scheduler. Results depend only on
// (tb seed, cell key): for a given spec, scale and seed the result —
// including its JSON encoding — is byte-identical at any worker count.
// A replicated campaign (spec.Repeats > 1) runs every cell Repeats
// times on independent key-derived seeds and reports aggregated
// statistics (mean, stderr, 95% CI) per metric.
func RunCampaign(tb *Testbed, spec Campaign, sc Scale) (*CampaignResult, error) {
	return core.RunCampaign(tb, spec, sc)
}

// ParseCampaign decodes and validates a JSON campaign spec (the
// -campaign file format of cmd/vcabench; see README).
func ParseCampaign(data []byte) (Campaign, error) {
	return core.ParseCampaign(data)
}

// NewPool builds a worker-fleet dispatcher over vcabenchd base URLs
// (e.g. "http://host:8547") with default options; see NewPoolOptions
// to tune in-flight bounds, retries and timeouts. The pool shards
// campaign cells across the fleet by unit key, probes worker health,
// retries failures with backoff, and hands unserved cells back for
// local execution — so results are byte-identical to a purely local
// run for any fleet size, worker mix or failure pattern.
func NewPool(workers []string) (*Pool, error) {
	return cluster.New(workers, cluster.Options{})
}

// NewPoolOptions is NewPool with explicit tuning.
func NewPoolOptions(workers []string, o PoolOptions) (*Pool, error) {
	return cluster.New(workers, o)
}

// RunDistributed is RunCampaign with the campaign's cells sharded
// across a worker fleet (see NewPool). The merged result — including
// its JSON encoding — is byte-identical to RunCampaign on the same
// testbed seed, scale and spec; distribution only changes wall-clock
// time. Cells already held by tb's cell store are never dispatched,
// and cells the fleet cannot serve compute locally.
func RunDistributed(tb *Testbed, spec Campaign, sc Scale, p *Pool) (*CampaignResult, error) {
	if p == nil {
		return nil, errors.New("vcabench: RunDistributed needs a pool (use RunCampaign for local execution)")
	}
	tb.WithDispatcher(p)
	return core.RunCampaign(tb, spec, sc)
}

// WriteJSON renders any result value (e.g. a *CampaignResult) as
// indented JSON followed by a newline.
func WriteJSON(w io.Writer, v any) error { return report.WriteJSON(w, v) }

// List returns every reproducible artifact (tables, figures, ablations).
func List() []Experiment { return core.Experiments() }

// Run executes one artifact by ID at the given scale, writing its
// rendered tables/plots to w. Campaign units run on the default worker
// pool; see RunParallel to pin the pool size.
func Run(id string, seed int64, sc Scale, w io.Writer) error {
	return RunParallel(id, seed, sc, 0, w)
}

// RunParallel is Run with an explicit campaign worker count
// (workers == 0 means runtime.GOMAXPROCS(0), 1 means serial; negative
// counts are rejected). Output is byte-identical at any worker count
// for the same seed and scale.
func RunParallel(id string, seed int64, sc Scale, workers int, w io.Writer) error {
	return RunWithOpts(id, seed, sc, RunOpts{Workers: workers}, w)
}

// RunOpts tunes Run-by-ID execution beyond seed and scale.
type RunOpts struct {
	// Workers bounds the campaign worker pool (0 = one per CPU,
	// 1 = serial; negative counts are rejected).
	Workers int
	// Store, when non-nil, persists campaign-unit results across
	// processes: units found in the store are decoded instead of
	// computed, and fresh units are written back. Cache temperature
	// never changes rendered bytes, only wall-clock time.
	Store CellStore
	// Dispatcher, when non-nil, shards campaign cells across a worker
	// fleet (see NewPool). Cells the fleet cannot serve run locally;
	// rendered bytes are identical to a purely local run either way.
	// Lag figures and ablations compute in-process.
	Dispatcher Dispatcher
	// Telemetry, when non-nil, records engine metrics and (with a
	// Tracer attached) execution spans for the run. Telemetry never
	// changes rendered bytes, only observes how they were produced.
	Telemetry *Telemetry
	// Diagnostics, when non-nil, arms the sim-time flight recorder and
	// receives one CellDiag document per campaign cell after the run,
	// in sorted key order. Arming diagnostics keys cached cells
	// separately (a bare-mode cache is never consulted) but does not
	// change the experiment's rendered tables; campaign JSON gains
	// drop-cause fields. Experiments that are not campaign-backed (the
	// lag figures) produce no documents.
	Diagnostics func(*CellDiag)
}

// ErrStore marks cell-persistence failures returned by RunWithOpts:
// the experiment completed and its output was fully written, only
// caching suffered. Callers may treat errors.Is(err, ErrStore) as a
// warning rather than a failed run.
var ErrStore = errors.New("vcabench: result store")

// RunWithOpts executes one artifact by ID with explicit options.
func RunWithOpts(id string, seed int64, sc Scale, opts RunOpts, w io.Writer) error {
	if opts.Workers < 0 {
		return fmt.Errorf("vcabench: worker count %d must be >= 1 (or 0 for the default)", opts.Workers)
	}
	e, ok := core.Lookup(id)
	if !ok {
		return fmt.Errorf("vcabench: unknown experiment %q (use List)", id)
	}
	tb := core.NewTestbed(seed).SetParallelism(opts.Workers)
	if opts.Store != nil {
		tb.WithStore(opts.Store)
	}
	if opts.Dispatcher != nil {
		tb.WithDispatcher(opts.Dispatcher)
	}
	if opts.Telemetry != nil {
		tb.WithTelemetry(opts.Telemetry)
	}
	if opts.Diagnostics != nil {
		tb.WithDiagnostics()
	}
	e.Run(tb, sc, w)
	if opts.Diagnostics != nil {
		for _, d := range tb.DiagResults() {
			opts.Diagnostics(d)
		}
	}
	if err := tb.StoreErr(); err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	return nil
}

// EncodeDiag renders a flight-recorder document as its canonical
// versioned JSON artifact: indented, trailing newline, byte-identical
// for a given cell at any worker count or cache temperature.
func EncodeDiag(d *CellDiag) ([]byte, error) { return diag.Encode(d) }

// DecodeDiag parses a diagnostics artifact produced by EncodeDiag (or
// by vcabench -diag-out / vcabenchd's /cells/{key}/diag endpoint),
// rejecting unknown schema versions and trailing garbage.
func DecodeDiag(data []byte) (*CellDiag, error) { return diag.Decode(data) }

// OpenStore creates (or reopens) a persistent result store rooted at
// dir, shareable between the CLI, the vcabenchd daemon and library
// callers — across processes and concurrently.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }

// OpenStoreOptions is OpenStore with explicit tuning (LRU bound,
// telemetry).
func OpenStoreOptions(dir string, o StoreOptions) (*Store, error) {
	return store.OpenOptions(dir, o)
}

// NewTelemetry builds the standard production telemetry bundle: a
// fresh metrics registry and the host's monotonic clock, with span
// tracing off until a Tracer is attached (see NewTracer).
func NewTelemetry() *Telemetry { return obs.NewTelemetry() }

// NewTracer builds a span tracer on the host's monotonic clock.
// Attach it to a Telemetry bundle (tel.Tracer = NewTracer()) before
// the run it should record.
func NewTracer() *Tracer { return obs.NewTracer(obs.RealClock{}) }

// MetricsHandler serves a registry in Prometheus text exposition
// format, for embedding a /metrics endpoint in a custom server.
func MetricsHandler(r *MetricsRegistry) http.Handler { return obs.Handler(r) }

// ScaleByName maps "tiny", "quick" or "paper" to its Scale.
func ScaleByName(name string) (Scale, bool) { return core.ScaleByName(name) }
