package core

import (
	"github.com/vcabench/vcabench/internal/obs"
)

// This file is the engine's telemetry seam. The scheduler records what
// happened (which tier served each unit, how long it took, how many
// are in flight) through an injected obs.Telemetry — metrics into the
// bundle's registry, spans into its tracer, and every timestamp read
// through the bundle's Clock, never the wall clock directly: that is
// the contract that keeps internal/core walltime-free under vcalint
// while still measuring real latencies in production. Telemetry is
// strictly observational — no result byte depends on whether it is
// attached — and every hook degrades to a no-op when it is not.

// unitTiers are the vcabench_units_total label values, one per tier of
// runMemoized: cell store, remote fleet, local compute.
var unitTiers = []string{"store", "dispatch", "local"}

// engineMetrics caches the scheduler's instruments so hot paths don't
// re-resolve families by name per unit.
type engineMetrics struct {
	inflight    *obs.Gauge
	unitSeconds *obs.Histogram
	units       *obs.CounterVec
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	em := &engineMetrics{
		inflight: reg.Gauge("vcabench_units_inflight",
			"Campaign units currently executing, locally or on a remote worker."),
		unitSeconds: reg.Histogram("vcabench_unit_seconds",
			"Wall time to resolve one campaign unit, whatever tier served it.", nil),
		units: reg.CounterVec("vcabench_units_total",
			"Campaign units resolved, by serving tier.", "tier"),
	}
	for _, tier := range unitTiers {
		em.units.With(tier)
	}
	return em
}

// RegisterEngineMetrics pre-creates the engine's metric families (with
// every tier series at zero) so a scrape taken before the first unit
// runs already shows the full catalog. Safe to call more than once —
// the registry's get-or-create semantics return the same series.
func RegisterEngineMetrics(reg *obs.Registry) {
	newEngineMetrics(reg)
}

// WithTelemetry attaches an observability bundle and returns tb for
// chaining. Fork propagates the bundle, so every unit testbed of a
// campaign reports into the same registry and tracer. Telemetry never
// changes results: the byte-identity matrix holds with it attached.
func (tb *Testbed) WithTelemetry(tel *obs.Telemetry) *Testbed {
	tb.tel = tel
	tb.em = nil
	if tel != nil && tel.Metrics != nil {
		tb.em = newEngineMetrics(tel.Metrics)
	}
	return tb
}

// Telemetry returns the attached bundle (nil when unobserved).
func (tb *Testbed) Telemetry() *obs.Telemetry { return tb.tel }

// tracer returns the attached tracer; nil (a valid no-op recorder)
// when telemetry or tracing is off.
func (tb *Testbed) tracer() *obs.Tracer {
	if tb.tel == nil {
		return nil
	}
	return tb.tel.Tracer
}

// now reads the telemetry clock; zero when unobserved.
func (tb *Testbed) now() int64 { return tb.tel.Now() }

// finishUnit closes a unit's span with its terminal tier and records
// the tier counter and wall-time histogram.
func (tb *Testbed) finishUnit(span obs.SpanID, tier string, start int64) {
	tb.tracer().End(span, obs.Label{Name: "tier", Value: tier})
	if tb.em != nil {
		tb.em.units.With(tier).Inc()
		tb.em.unitSeconds.Observe(float64(tb.now()-start) / 1e9)
	}
}

// spanAt indexes an optional span slice (nil when tracing is off).
func spanAt(spans []obs.SpanID, i int) obs.SpanID {
	if spans == nil {
		return 0
	}
	return spans[i]
}
