package main

import (
	"bytes"
	"encoding/json"
	"sync"
	"time"

	"github.com/vcabench/vcabench"
)

// engineProbe gathers the traced run's in-situ engine and store
// figures: unit spans from the engine's own tracer (armed through
// RunOpts.Telemetry) and Get/Put timings from a timing CellStore
// decorator around the real store. A nil probe is the untraced run:
// store and telemetry then pass through, so pass code is the same in
// both runs.
type engineProbe struct {
	tel *vcabench.Telemetry // the current pass's, until harvested

	mu                     sync.Mutex
	localRunMs             []float64
	localRunNs             int64
	unitsLocal, unitsStore int
	getUs, putUs           []float64
	hits                   int
	readB, writeB          int64
}

// store returns st, wrapped in the timing decorator when traced.
func (p *engineProbe) store(st *vcabench.Store) vcabench.CellStore {
	if p == nil {
		return st
	}
	return &timedStore{st: st, p: p}
}

// telemetry returns a fresh span tracer for one pass, nil when untraced.
func (p *engineProbe) telemetry() *vcabench.Telemetry {
	if p == nil {
		return nil
	}
	p.tel = vcabench.NewTelemetry()
	p.tel.Tracer = vcabench.NewTracer()
	return p.tel
}

// span is the subset of the tracer's JSONL export the probe reads.
type span struct {
	Tier  string            `json:"tier"`
	DurNS int64             `json:"dur_ns"`
	Attrs map[string]string `json:"attrs"`
}

// harvest folds the last pass's spans into the probe, outside the
// pass's timed window: local-run durations, and which tier served each
// unit.
func (p *engineProbe) harvest() error {
	var buf bytes.Buffer
	if err := p.tel.Tracer.WriteJSONL(&buf); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return err
		}
		switch {
		case s.Tier == "local-run":
			p.localRunMs = append(p.localRunMs, float64(s.DurNS)/1e6)
			p.localRunNs += s.DurNS
		case s.Tier == "unit" && s.Attrs["tier"] == "local":
			p.unitsLocal++
		case s.Tier == "unit" && s.Attrs["tier"] == "store":
			p.unitsStore++
		}
	}
	return nil
}

// metrics reports the probe's figures for passes timed passes whose
// wall times sum to wallS, run on workers workers.
func (p *engineProbe) metrics(passes int, wallS float64, workers int) map[string]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := float64(passes)
	hitRatio := 0.0
	if len(p.getUs) > 0 {
		hitRatio = float64(p.hits) / float64(len(p.getUs))
	}
	return map[string]float64{
		"core.local_run_ms_p50":   median(p.localRunMs),
		"core.local_run_ms_p90":   nearestRank(p.localRunMs, 90),
		"core.units_local":        float64(p.unitsLocal) / n,
		"core.units_store":        float64(p.unitsStore) / n,
		"core.worker_busy_frac":   float64(p.localRunNs) / 1e9 / (wallS * float64(workers)),
		"store.get_us_p50":        median(p.getUs),
		"store.put_us_p50":        median(p.putUs),
		"store.hit_ratio":         hitRatio,
		"store.read_kb_per_pass":  float64(p.readB) / 1e3 / n,
		"store.write_kb_per_pass": float64(p.writeB) / 1e3 / n,
	}
}

// timedStore is the timing CellStore decorator of the traced run.
type timedStore struct {
	st *vcabench.Store
	p  *engineProbe
}

func (s *timedStore) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	data, ok := s.st.Get(key)
	us := float64(time.Since(t0)) / 1e3
	s.p.mu.Lock()
	s.p.getUs = append(s.p.getUs, us)
	if ok {
		s.p.hits++
		s.p.readB += int64(len(data))
	}
	s.p.mu.Unlock()
	return data, ok
}

func (s *timedStore) Put(key string, data []byte) error {
	t0 := time.Now()
	err := s.st.Put(key, data)
	us := float64(time.Since(t0)) / 1e3
	s.p.mu.Lock()
	s.p.putUs = append(s.p.putUs, us)
	s.p.writeB += int64(len(data))
	s.p.mu.Unlock()
	return err
}
