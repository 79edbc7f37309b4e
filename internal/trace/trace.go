// Package trace models deterministic, JSON-able impairment schedules:
// a Trace is a named sequence of (at, downlink_cap_bps, loss_pct,
// extra_delay) steps applied to a receiver node's downlink over
// simulated session time. The paper's headline dynamics results (Figs
// 13-15: how Zoom, Webex and Meet recover from time-varying bandwidth
// disturbances) are square waves of exactly this shape; real backhauls
// (LTE buses, congested DSL) are bursty schedules rather than constant
// caps. Traces make those conditions first-class campaign-axis values:
// declarative, canonically named, and replayed byte-identically on any
// worker by a Player driving the simnet scheduled-reconfiguration hook
// (Node.SetDownlinkState / Node.DownlinkAt).
package trace

import (
	"fmt"
	"math"
	"time"

	"github.com/vcabench/vcabench/internal/simnet"
)

// Step is one schedule point: the complete downlink state to apply at
// AtSec, expressed in absolute terms, never deltas — replaying a
// prefix of a trace always leaves the link in a well-defined state.
//
//vcalint:ignore floatfmt input-side schedule; JSON cannot encode NaN and Validate rejects non-finite values
type Step struct {
	// AtSec is the offset from trace start in seconds.
	AtSec float64 `json:"at_sec"`
	// DownCapBps caps the downlink from this step on; 0 = uncapped.
	DownCapBps int64 `json:"down_cap_bps,omitempty"`
	// LossPct is random downlink loss in [0, 100).
	LossPct float64 `json:"loss_pct,omitempty"`
	// ExtraDelayMs adds a fixed per-packet delivery delay after the
	// rate stage, in milliseconds.
	ExtraDelayMs float64 `json:"extra_delay_ms,omitempty"`
}

// state converts the step into the simnet reconfiguration it applies.
func (st Step) state(burst int) simnet.LinkState {
	return simnet.LinkState{
		CapBps:     st.DownCapBps,
		Burst:      burst,
		LossProb:   st.LossPct / 100,
		ExtraDelay: time.Duration(st.ExtraDelayMs * float64(time.Millisecond)),
	}
}

// Trace is a named, validated impairment schedule. Steps are strictly
// ordered by AtSec; with RepeatSec > 0 the schedule replays with that
// period (every AtSec must then fall inside [0, RepeatSec)), otherwise
// it plays once and the last step's state persists.
//
//vcalint:ignore floatfmt input-side schedule; JSON cannot encode NaN and Validate rejects non-finite values
type Trace struct {
	Name      string  `json:"name"`
	Steps     []Step  `json:"steps"`
	RepeatSec float64 `json:"repeat_sec,omitempty"`
}

// finite rejects the float values JSON cannot carry but Go callers
// could still construct.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// maxTraceSec bounds every schedule time: a million seconds (~11.5
// days) dwarfs any session yet keeps second-to-Duration conversions —
// including whole repeat cycles — far from int64-nanosecond overflow,
// which would wrap a scheduled instant into the past and panic the
// simulator mid-replay.
const maxTraceSec = 1e6

// span reports whether v is a usable schedule time.
func span(v float64) bool { return finite(v) && v >= 0 && v <= maxTraceSec }

// Validate checks the schedule's structure. The name is free-form here;
// campaign-level constraints (uniqueness, no "/") live with the axis.
func (t Trace) Validate() error {
	if len(t.Steps) == 0 {
		return fmt.Errorf("trace %q: no steps", t.Name)
	}
	if !span(t.RepeatSec) {
		return fmt.Errorf("trace %q: repeat_sec %.6g invalid (want [0, %.6g])", t.Name, t.RepeatSec, float64(maxTraceSec))
	}
	prev := math.Inf(-1)
	for i, st := range t.Steps {
		if !span(st.AtSec) {
			return fmt.Errorf("trace %q: step %d at_sec %.6g invalid (want [0, %.6g])", t.Name, i, st.AtSec, float64(maxTraceSec))
		}
		if st.AtSec <= prev {
			return fmt.Errorf("trace %q: step %d at_sec %.6g not strictly increasing", t.Name, i, st.AtSec)
		}
		prev = st.AtSec
		if st.DownCapBps < 0 {
			return fmt.Errorf("trace %q: step %d negative down_cap_bps", t.Name, i)
		}
		if !finite(st.LossPct) || st.LossPct < 0 || st.LossPct >= 100 {
			return fmt.Errorf("trace %q: step %d loss_pct %.6g outside [0, 100)", t.Name, i, st.LossPct)
		}
		if !finite(st.ExtraDelayMs) || st.ExtraDelayMs < 0 || st.ExtraDelayMs > maxTraceSec*1000 {
			return fmt.Errorf("trace %q: step %d extra_delay_ms %.6g invalid", t.Name, i, st.ExtraDelayMs)
		}
		if t.RepeatSec > 0 && st.AtSec >= t.RepeatSec {
			return fmt.Errorf("trace %q: step %d at_sec %.6g outside the repeat period [0, %.6g)",
				t.Name, i, st.AtSec, t.RepeatSec)
		}
	}
	return nil
}

// Square returns a repeating square wave: highBps from cycle start,
// dropping to lowBps after highDur, recovering at the next cycle.
// A cap of 0 means uncapped.
func Square(name string, highBps, lowBps int64, highDur, lowDur time.Duration) Trace {
	return Trace{
		Name:      name,
		RepeatSec: highDur.Seconds() + lowDur.Seconds(),
		Steps: []Step{
			{AtSec: 0, DownCapBps: highBps},
			{AtSec: highDur.Seconds(), DownCapBps: lowBps},
		},
	}
}

// DropRecover is the single drop/recover pulse of the paper's Fig 13:
// the link runs at baseBps, drops to dropBps at dropAt, and recovers
// to baseBps after dropFor — then stays recovered, which is what makes
// per-platform recovery dynamics visible in the rate-over-time series.
func DropRecover(name string, baseBps, dropBps int64, dropAt, dropFor time.Duration) Trace {
	return Trace{
		Name: name,
		Steps: []Step{
			{AtSec: 0, DownCapBps: baseBps},
			{AtSec: dropAt.Seconds(), DownCapBps: dropBps},
			{AtSec: (dropAt + dropFor).Seconds(), DownCapBps: baseBps},
		},
	}
}

// Sawtooth ramps the cap from topBps down to bottomBps in n equal
// treads spread over period, then snaps back to the top and repeats.
// n must be >= 2 (top and bottom included).
func Sawtooth(name string, topBps, bottomBps int64, n int, period time.Duration) Trace {
	tr := Trace{Name: name, RepeatSec: period.Seconds()}
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n-1)
		cap := topBps - int64(math.Round(frac*float64(topBps-bottomBps)))
		tr.Steps = append(tr.Steps, Step{
			AtSec:      float64(i) * period.Seconds() / float64(n),
			DownCapBps: cap,
		})
	}
	return tr
}

// StepDown descends through the given cap levels, dwelling at each,
// and stays at the last level — a step-down ladder for probing where a
// platform's quality cliff sits within one session.
func StepDown(name string, levelsBps []int64, dwell time.Duration) Trace {
	tr := Trace{Name: name}
	for i, cap := range levelsBps {
		tr.Steps = append(tr.Steps, Step{
			AtSec:      float64(i) * dwell.Seconds(),
			DownCapBps: cap,
		})
	}
	return tr
}

// Spec declares a trace in a campaign JSON file: either explicit Steps
// (with optional RepeatSec) or exactly one generator. The zero Spec is
// inactive — the "no trace" default value of a campaign's Traces axis.
//
//vcalint:ignore floatfmt input-side spec; JSON cannot encode NaN and Resolve validates every value
type Spec struct {
	// Name labels the trace in unit keys and results.
	Name string `json:"name,omitempty"`
	// Steps lists an explicit schedule.
	Steps []Step `json:"steps,omitempty"`
	// RepeatSec replays explicit Steps with this period. It cannot
	// combine with a generator (each defines its own repetition); a
	// spec setting both is rejected rather than silently ignored.
	RepeatSec float64 `json:"repeat_sec,omitempty"`
	// Square generates a repeating high/low square wave.
	Square *SquareSpec `json:"square,omitempty"`
	// Sawtooth generates a repeating descending ramp.
	Sawtooth *SawtoothSpec `json:"sawtooth,omitempty"`
	// StepDown generates a play-once descending ladder.
	StepDown *StepDownSpec `json:"step_down,omitempty"`
}

// SquareSpec parameterizes Square, or — with Once — a single
// DropRecover pulse (high for HighSec, low for LowSec, high again).
//
//vcalint:ignore floatfmt input-side spec; JSON cannot encode NaN and Resolve validates every value
type SquareSpec struct {
	HighBps int64   `json:"high_bps"`
	LowBps  int64   `json:"low_bps"`
	HighSec float64 `json:"high_sec"`
	LowSec  float64 `json:"low_sec"`
	Once    bool    `json:"once,omitempty"`
}

// SawtoothSpec parameterizes Sawtooth.
//
//vcalint:ignore floatfmt input-side spec; JSON cannot encode NaN and Resolve validates every value
type SawtoothSpec struct {
	TopBps    int64   `json:"top_bps"`
	BottomBps int64   `json:"bottom_bps"`
	Steps     int     `json:"steps"`
	PeriodSec float64 `json:"period_sec"`
}

// StepDownSpec parameterizes StepDown.
//
//vcalint:ignore floatfmt input-side spec; JSON cannot encode NaN and Resolve validates every value
type StepDownSpec struct {
	LevelsBps []int64 `json:"levels_bps"`
	DwellSec  float64 `json:"dwell_sec"`
}

// Active reports whether the spec declares any schedule at all.
func (s Spec) Active() bool {
	return len(s.Steps) > 0 || s.Square != nil || s.Sawtooth != nil || s.StepDown != nil
}

func secs(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

// Resolve expands the spec into a validated Trace. An inactive spec
// resolves to the zero Trace with no error.
func (s Spec) Resolve() (Trace, error) {
	sources := 0
	if len(s.Steps) > 0 {
		sources++
	}
	if s.Square != nil {
		sources++
	}
	if s.Sawtooth != nil {
		sources++
	}
	if s.StepDown != nil {
		sources++
	}
	if sources == 0 {
		return Trace{}, nil
	}
	if sources > 1 {
		return Trace{}, fmt.Errorf("trace %q: steps, square, sawtooth and step_down are mutually exclusive", s.Name)
	}
	if s.RepeatSec != 0 && len(s.Steps) == 0 {
		return Trace{}, fmt.Errorf("trace %q: repeat_sec applies only to explicit steps (generators define their own period)", s.Name)
	}
	var tr Trace
	switch {
	case len(s.Steps) > 0:
		tr = Trace{Name: s.Name, Steps: s.Steps, RepeatSec: s.RepeatSec}
	case s.Square != nil:
		q := *s.Square
		if !finite(q.HighSec) || !finite(q.LowSec) || q.HighSec <= 0 || q.LowSec <= 0 {
			return Trace{}, fmt.Errorf("trace %q: square needs positive high_sec and low_sec", s.Name)
		}
		if q.Once {
			tr = DropRecover(s.Name, q.HighBps, q.LowBps, secs(q.HighSec), secs(q.LowSec))
		} else {
			tr = Square(s.Name, q.HighBps, q.LowBps, secs(q.HighSec), secs(q.LowSec))
		}
	case s.Sawtooth != nil:
		w := *s.Sawtooth
		if w.Steps < 2 {
			return Trace{}, fmt.Errorf("trace %q: sawtooth needs >= 2 steps", s.Name)
		}
		if !finite(w.PeriodSec) || w.PeriodSec <= 0 {
			return Trace{}, fmt.Errorf("trace %q: sawtooth needs a positive period_sec", s.Name)
		}
		if w.BottomBps > w.TopBps {
			return Trace{}, fmt.Errorf("trace %q: sawtooth bottom_bps > top_bps", s.Name)
		}
		tr = Sawtooth(s.Name, w.TopBps, w.BottomBps, w.Steps, secs(w.PeriodSec))
	case s.StepDown != nil:
		d := *s.StepDown
		if len(d.LevelsBps) == 0 {
			return Trace{}, fmt.Errorf("trace %q: step_down needs levels_bps", s.Name)
		}
		if !finite(d.DwellSec) || d.DwellSec <= 0 {
			return Trace{}, fmt.Errorf("trace %q: step_down needs a positive dwell_sec", s.Name)
		}
		tr = StepDown(s.Name, d.LevelsBps, secs(d.DwellSec))
	}
	if err := tr.Validate(); err != nil {
		return Trace{}, err
	}
	return tr, nil
}

// Player replays one trace against one node's downlink in virtual
// time. Scheduling is incremental — each step schedules its successor
// when it fires — so the simulator's event stream is identical to a
// hand-coded Sim.Every toggle loop with the same instants, which is
// what keeps ported experiments byte-identical.
type Player struct {
	sim   *simnet.Sim
	node  *simnet.Node
	tr    Trace
	burst int
	start time.Time
	cycle int
	idx   int
	ev    *simnet.Event
	probe StepProbe
}

// StepProbe observes every step application in sim time — the
// flight-recorder seam (see internal/diag). It fires synchronously
// right after the downlink state is applied, so an installed probe
// cannot change when or what the player applies.
type StepProbe func(at time.Time, name string, step Step)

// Play starts replaying tr against node at sim.Now(). A step with
// AtSec == 0 applies synchronously (no event); later steps schedule
// through the simnet reconfiguration hook. burst sets the token-bucket
// depth installed by capped steps (<= 0 selects the simnet default).
// probe, if non-nil, observes every step application; it changes no
// event, instant or application. The trace must be valid (see
// Validate); playing an invalid trace panics rather than replaying a
// half-checked schedule.
func Play(sim *simnet.Sim, node *simnet.Node, tr Trace, burst int, probe StepProbe) *Player {
	if err := tr.Validate(); err != nil {
		panic("trace: Play: " + err.Error())
	}
	p := &Player{sim: sim, node: node, tr: tr, burst: burst, start: sim.Now(), probe: probe}
	if tr.Steps[0].AtSec == 0 {
		p.node.SetDownlinkState(tr.Steps[0].state(burst))
		if p.probe != nil {
			p.probe(sim.Now(), tr.Name, tr.Steps[0])
		}
		p.idx = 1
	}
	p.scheduleNext()
	return p
}

// scheduleNext arms the event for the upcoming step, wrapping into the
// next cycle for repeating traces. One-shot traces go quiescent after
// the last step.
func (p *Player) scheduleNext() {
	if p.idx >= len(p.tr.Steps) {
		if p.tr.RepeatSec <= 0 {
			p.ev = nil
			return
		}
		p.cycle++
		p.idx = 0
	}
	step := p.tr.Steps[p.idx]
	// Integer Duration math: cycle k fires at start + k*repeat + offset
	// exactly, so repeating schedules accumulate no float drift across
	// cycles (matching a hand-rolled Every toggle's repeated adds).
	at := p.start.Add(time.Duration(p.cycle)*secs(p.tr.RepeatSec) + secs(step.AtSec))
	p.ev = p.sim.At(at, func() {
		p.node.SetDownlinkState(step.state(p.burst))
		if p.probe != nil {
			p.probe(p.sim.Now(), p.tr.Name, step)
		}
		p.idx++
		p.scheduleNext()
	})
}

// Stop cancels the pending reconfiguration, freezing the link in its
// current state; the caller restores whatever baseline it needs.
func (p *Player) Stop() {
	if p.ev != nil {
		p.ev.Cancel()
		p.ev = nil
	}
}
