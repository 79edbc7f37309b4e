package core

import (
	"sort"
	"strconv"
	"time"

	"github.com/vcabench/vcabench/internal/client"
	"github.com/vcabench/vcabench/internal/diag"
	"github.com/vcabench/vcabench/internal/simnet"
	"github.com/vcabench/vcabench/internal/trace"
)

// diagBinWidth is the flight recorder's series bin width. One second
// matches rateBinWidth, so diag series and RateOverTime line up
// bin-for-bin.
const diagBinWidth = time.Second

// WithDiagnostics arms the sim-time flight recorder (internal/diag) on
// this testbed and every fork it spawns: pipes, the event queue, trace
// players, rate control and client media pipelines feed a per-unit
// recorder, and each unit's finalized document rides its QoEStudyResult
// through the CellStore and the Dispatcher. Diagnostics are
// part of a unit's identity — armed and bare runs use disjoint cell
// keys (see cellKey) — so a cache warmed bare can never satisfy an
// armed run with diag-less cells. Arm before running anything; the
// method returns the testbed for chaining.
func (tb *Testbed) WithDiagnostics() *Testbed {
	tb.diag = true
	if tb.diagRec == nil {
		tb.armDiag("")
	}
	return tb
}

// armDiag installs a fresh recorder keyed by unitKey ("" outside
// campaign units) and points every probe seam at it. Platforms
// instantiated later are wired by Platform.
func (tb *Testbed) armDiag(unitKey string) {
	r := diag.NewRecorder(unitKey, tb.Sim.Now(), diagBinWidth)
	tb.diagRec = r
	tb.Sim.SetStepProbe(r.StepExecuted)
	tb.Net.SetPipeProbe(pipeProbe{r})
	for k, p := range tb.platforms {
		p.SetRateProbe(tb.rateProbe(string(k)))
	}
}

// pipeProbe adapts the recorder to simnet's probe interface.
type pipeProbe struct{ r *diag.Recorder }

func (p pipeProbe) PipeForwarded(pipe string, at time.Time, l7, wire, queuedBytes int, wait time.Duration) {
	p.r.PipeForwarded(pipe, at, l7, wire, queuedBytes, wait)
}

func (p pipeProbe) PipeDropped(pipe string, at time.Time, wire int, cause simnet.DropCause) {
	c := diag.CauseQueue
	if cause == simnet.DropRandom {
		c = diag.CauseRandom
	}
	p.r.PipeDropped(pipe, at, wire, c)
}

// rateProbe returns the platform rate-target observer for one platform
// kind, labelling events "<kind>-session-<id>".
func (tb *Testbed) rateProbe(kind string) func(session int, bps float64) {
	r := tb.diagRec
	return func(session int, bps float64) {
		r.Event(tb.Sim.Now(), diag.KindRateTarget, kind+"-session-"+strconv.Itoa(session), bps)
	}
}

// traceProbe returns the step observer trace players feed, or nil when
// diagnostics are off (so players replay exactly as without a probe).
func (tb *Testbed) traceProbe() trace.StepProbe {
	if tb.diagRec == nil {
		return nil
	}
	r := tb.diagRec
	return func(at time.Time, name string, step trace.Step) {
		r.Event(at, diag.KindTraceStep, name, float64(step.DownCapBps))
	}
}

// clientProbe returns the media-pipeline observer for one client, or
// nil when diagnostics are off.
func (tb *Testbed) clientProbe(name string) func(at time.Time, kind string, value float64) {
	if tb.diagRec == nil {
		return nil
	}
	r := tb.diagRec
	return func(at time.Time, kind string, value float64) {
		r.Event(at, kind, name, value)
	}
}

// recordFreezes derives freeze runs from one scored recording and logs
// one KindFreeze event per contiguous run, back-dated to the run's
// first display slot. A slot is frozen when nothing has decoded yet or
// when the decoder re-displayed the previous frame (the decoder returns
// the identical *media.Frame on every freeze path, so pointer equality
// is exact, not heuristic).
func (tb *Testbed) recordFreezes(rec client.Recording, subject string, from time.Time, fps int) {
	r := tb.diagRec
	if r == nil || fps <= 0 {
		return
	}
	interval := time.Second / time.Duration(fps)
	runStart, runLen := 0, 0
	flush := func() {
		if runLen > 0 {
			r.Event(from.Add(time.Duration(runStart)*interval), diag.KindFreeze, subject, float64(runLen))
			runLen = 0
		}
	}
	for i, f := range rec.Displayed {
		frozen := f == nil || (i > 0 && f == rec.Displayed[i-1])
		if frozen {
			if runLen == 0 {
				runStart = i
			}
			runLen++
			continue
		}
		flush()
	}
	flush()
}

// diagAdd collects one unit's finalized document into the root
// testbed's export set, whichever tier produced it (local run, store
// hit or remote dispatch). Guarded by mu: campaign harvest runs on the
// caller's goroutine, but the lock keeps the table safe if experiment
// drivers ever run concurrently.
func (tb *Testbed) diagAdd(d *diag.CellDiag) {
	if d == nil {
		return
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.diagDocs == nil {
		tb.diagDocs = make(map[string]*diag.CellDiag)
	}
	tb.diagDocs[d.Key] = d
}

// DiagResults returns every collected diagnostics document sorted by
// unit key — the export surface behind `vcabench -diag-out`,
// vcabenchd's /cells/{key}/diag and RunOpts.Diagnostics. Empty until a
// diagnostics-armed campaign has run.
func (tb *Testbed) DiagResults() []*diag.CellDiag {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	out := make([]*diag.CellDiag, 0, len(tb.diagDocs))
	//vcalint:ignore maprange the result slice is sorted by key immediately below, erasing iteration order
	for _, d := range tb.diagDocs {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
