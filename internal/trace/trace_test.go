package trace

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/simnet"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		tr   Trace
		want string // error substring, "" = valid
	}{
		{"empty", Trace{Name: "x"}, "no steps"},
		{"ok one step", Trace{Name: "x", Steps: []Step{{AtSec: 0, DownCapBps: 1000}}}, ""},
		{"ok increasing", Trace{Name: "x", Steps: []Step{{AtSec: 0}, {AtSec: 1.5}}}, ""},
		{"negative at", Trace{Name: "x", Steps: []Step{{AtSec: -1}}}, "at_sec"},
		{"nan at", Trace{Name: "x", Steps: []Step{{AtSec: math.NaN()}}}, "at_sec"},
		{"not increasing", Trace{Name: "x", Steps: []Step{{AtSec: 1}, {AtSec: 1}}}, "strictly increasing"},
		{"negative cap", Trace{Name: "x", Steps: []Step{{DownCapBps: -1}}}, "down_cap_bps"},
		{"loss range", Trace{Name: "x", Steps: []Step{{LossPct: 100}}}, "loss_pct"},
		{"nan loss", Trace{Name: "x", Steps: []Step{{LossPct: math.NaN()}}}, "loss_pct"},
		{"negative delay", Trace{Name: "x", Steps: []Step{{ExtraDelayMs: -1}}}, "extra_delay_ms"},
		{"negative repeat", Trace{Name: "x", RepeatSec: -1, Steps: []Step{{}}}, "repeat_sec"},
		{"inf repeat", Trace{Name: "x", RepeatSec: math.Inf(1), Steps: []Step{{}}}, "repeat_sec"},
		{"step outside period", Trace{Name: "x", RepeatSec: 2, Steps: []Step{{AtSec: 0}, {AtSec: 2}}}, "repeat period"},
		{"ok repeating", Trace{Name: "x", RepeatSec: 2, Steps: []Step{{AtSec: 0}, {AtSec: 1}}}, ""},
		// Times past the bound would overflow the nanosecond Duration
		// conversion and wrap scheduled instants into the past.
		{"huge at", Trace{Name: "x", Steps: []Step{{AtSec: 1e10}}}, "at_sec"},
		{"huge repeat", Trace{Name: "x", RepeatSec: 1e10, Steps: []Step{{AtSec: 0}}}, "repeat_sec"},
		{"huge delay", Trace{Name: "x", Steps: []Step{{ExtraDelayMs: 1e12}}}, "extra_delay_ms"},
		{"max at ok", Trace{Name: "x", Steps: []Step{{AtSec: 1e6}}}, ""},
	}
	for _, c := range cases {
		err := c.tr.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v does not mention %q", c.name, err, c.want)
		}
	}
}

func TestGenerators(t *testing.T) {
	sq := Square("sq", 2_000_000, 500_000, 3*time.Second, time.Second)
	if err := sq.Validate(); err != nil {
		t.Fatal(err)
	}
	if sq.RepeatSec != 4 || len(sq.Steps) != 2 || sq.Steps[1].AtSec != 3 || sq.Steps[1].DownCapBps != 500_000 {
		t.Errorf("Square = %+v", sq)
	}

	dr := DropRecover("dr", 0, 250_000, 2*time.Second, 4*time.Second)
	if err := dr.Validate(); err != nil {
		t.Fatal(err)
	}
	if dr.RepeatSec != 0 || len(dr.Steps) != 3 || dr.Steps[2].AtSec != 6 || dr.Steps[2].DownCapBps != 0 {
		t.Errorf("DropRecover = %+v", dr)
	}

	sw := Sawtooth("sw", 1_000_000, 200_000, 5, 10*time.Second)
	if err := sw.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sw.Steps) != 5 || sw.Steps[0].DownCapBps != 1_000_000 || sw.Steps[4].DownCapBps != 200_000 {
		t.Errorf("Sawtooth = %+v", sw)
	}

	sd := StepDown("sd", []int64{1_000_000, 500_000, 250_000}, 2*time.Second)
	if err := sd.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sd.Steps) != 3 || sd.Steps[2].AtSec != 4 || sd.Steps[2].DownCapBps != 250_000 {
		t.Errorf("StepDown = %+v", sd)
	}
}

func TestSpecResolve(t *testing.T) {
	if (Spec{}).Active() {
		t.Error("zero spec must be inactive")
	}
	if tr, err := (Spec{}).Resolve(); err != nil || len(tr.Steps) != 0 {
		t.Errorf("inactive spec resolved to %+v, %v", tr, err)
	}

	bad := []struct {
		spec Spec
		want string
	}{
		{Spec{Name: "x", Steps: []Step{{}}, Square: &SquareSpec{HighSec: 1, LowSec: 1}}, "mutually exclusive"},
		{Spec{Name: "x", Square: &SquareSpec{HighSec: 0, LowSec: 1}}, "positive high_sec"},
		{Spec{Name: "x", Square: &SquareSpec{HighSec: math.NaN(), LowSec: 1}}, "positive high_sec"},
		{Spec{Name: "x", Sawtooth: &SawtoothSpec{Steps: 1, PeriodSec: 4}}, ">= 2 steps"},
		{Spec{Name: "x", Sawtooth: &SawtoothSpec{Steps: 3, PeriodSec: 0}}, "period_sec"},
		{Spec{Name: "x", Sawtooth: &SawtoothSpec{TopBps: 1, BottomBps: 2, Steps: 3, PeriodSec: 4}}, "bottom_bps > top_bps"},
		{Spec{Name: "x", StepDown: &StepDownSpec{DwellSec: 1}}, "levels_bps"},
		{Spec{Name: "x", StepDown: &StepDownSpec{LevelsBps: []int64{1000}, DwellSec: 0}}, "dwell_sec"},
		{Spec{Name: "x", Steps: []Step{{AtSec: -1}}}, "at_sec"},
		{Spec{Name: "x", RepeatSec: 5, Square: &SquareSpec{HighSec: 4, LowSec: 4}}, "repeat_sec applies only"},
	}
	for _, c := range bad {
		if _, err := c.spec.Resolve(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Resolve(%+v): error %v does not mention %q", c.spec, err, c.want)
		}
	}

	// A generator spec round-trips through JSON to the same trace.
	spec := Spec{Name: "p", Square: &SquareSpec{HighBps: 0, LowBps: 250_000, HighSec: 2, LowSec: 4, Once: true}}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	a, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Steps) != 3 || a.Steps[1].DownCapBps != 250_000 {
		t.Errorf("square-once resolved to %+v", a)
	}
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			t.Errorf("step %d drifted across JSON: %+v vs %+v", i, a.Steps[i], b.Steps[i])
		}
	}
}

// testNode builds a sim and a node with an unconstrained downlink.
func testNode(t *testing.T) (*simnet.Sim, *simnet.Network, *simnet.Node) {
	t.Helper()
	sim := simnet.NewSim(1)
	net := simnet.NewNetwork(sim, simnet.NetworkConfig{})
	n := net.AddNode(simnet.NodeConfig{Name: "recv", Region: geo.USEast})
	return sim, net, n
}

// The player drives the node's downlink through the schedule: packets
// sent during a capped window arrive throttled, packets after recovery
// arrive promptly.
func TestPlayerAppliesSchedule(t *testing.T) {
	sim, net, recv := testNode(t)
	send := net.AddNode(simnet.NodeConfig{Name: "send", Region: geo.USEast})

	var arrivals []time.Time
	recv.Bind(9, func(pkt *simnet.Packet) { arrivals = append(arrivals, sim.Now()) })

	// 1 KB packets every 100 ms for 6 s ≈ 80 kbps offered load.
	for i := 0; i < 60; i++ {
		at := simnet.Epoch.Add(time.Duration(i) * 100 * time.Millisecond)
		sim.At(at, func() {
			send.Send(&simnet.Packet{To: simnet.Addr{Node: "recv", Port: 9}, Size: 1000})
		})
	}

	// Cap hard (8 kbps, ~2 packets of burst) during [2s, 4s): ~1 s of
	// serialization per packet once the initial bucket drains.
	p := Play(sim, recv, DropRecover("dip", 0, 8_000, 2*time.Second, 2*time.Second), 2048, nil)
	sim.Run()
	p.Stop()

	if len(arrivals) == 0 {
		t.Fatal("no packets delivered")
	}
	var before, during, late int
	for _, at := range arrivals {
		switch d := at.Sub(simnet.Epoch); {
		case d < 2*time.Second:
			before++
		case d < 4*time.Second:
			during++
		default:
			late++
		}
	}
	// ~20 packets are offered before the dip and pass untouched; the
	// 8 kbps window admits only a couple of the ~20 offered during it,
	// with the backlog (and the post-recovery traffic) draining after.
	if before != 20 {
		t.Errorf("pre-dip deliveries = %d, want 20", before)
	}
	if during >= 10 {
		t.Errorf("dip window delivered %d packets, want far fewer than offered", during)
	}
	if late == 0 {
		t.Error("nothing delivered after recovery")
	}
}

// A repeating trace keeps an event armed forever; Stop freezes the
// schedule so the event queue can drain.
func TestPlayerRepeatAndStop(t *testing.T) {
	sim, _, recv := testNode(t)
	p := Play(sim, recv, Square("sq", 1_000_000, 100_000, time.Second, time.Second), 0, nil)
	// Far beyond several periods, the player still has its next step
	// armed (a one-shot schedule would have gone quiescent long ago).
	sim.RunUntil(simnet.Epoch.Add(25 * time.Second))
	if sim.Pending() == 0 {
		t.Fatal("repeating player went quiescent")
	}
	steps := sim.Steps()
	if steps < 20 {
		t.Errorf("only %d reconfigurations over 25 s of a 2 s period", steps)
	}
	p.Stop()
	// With the pending step cancelled nothing reschedules: Run drains.
	sim.Run()
	if got := sim.Pending(); got != 0 {
		t.Errorf("pending after drain = %d", got)
	}
	if sim.Steps() != steps {
		t.Errorf("cancelled step still fired: %d -> %d", steps, sim.Steps())
	}
}

// Replaying the same trace twice from the same state yields identical
// delivery times — the determinism the campaign layer builds on.
func TestPlayerDeterministic(t *testing.T) {
	run := func() []time.Duration {
		sim, net, recv := testNode(t)
		send := net.AddNode(simnet.NodeConfig{Name: "send", Region: geo.USEast})
		var at []time.Duration
		recv.Bind(9, func(pkt *simnet.Packet) { at = append(at, sim.Since()) })
		for i := 0; i < 40; i++ {
			t := simnet.Epoch.Add(time.Duration(i) * 150 * time.Millisecond)
			sim.At(t, func() {
				send.Send(&simnet.Packet{To: simnet.Addr{Node: "recv", Port: 9}, Size: 1200})
			})
		}
		p := Play(sim, recv, Sawtooth("sw", 200_000, 20_000, 4, 2*time.Second), 0, nil)
		// A repeating player always keeps an event armed; run to a
		// horizon past the last send plus drain time, then stop it.
		sim.RunUntil(simnet.Epoch.Add(30 * time.Second))
		p.Stop()
		sim.Run()
		return at
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// Playing an invalid trace is a programming error and panics.
func TestPlayInvalidPanics(t *testing.T) {
	sim, _, recv := testNode(t)
	defer func() {
		if recover() == nil {
			t.Error("Play of an invalid trace should panic")
		}
	}()
	Play(sim, recv, Trace{Name: "bad"}, 0, nil)
}

// An extra-delay step shifts deliveries without throttling them.
func TestExtraDelayStep(t *testing.T) {
	sim, net, recv := testNode(t)
	send := net.AddNode(simnet.NodeConfig{Name: "send", Region: geo.USEast})
	var arrivals []time.Duration
	recv.Bind(9, func(pkt *simnet.Packet) { arrivals = append(arrivals, sim.Since()) })
	sim.At(simnet.Epoch.Add(100*time.Millisecond), func() {
		send.Send(&simnet.Packet{To: simnet.Addr{Node: "recv", Port: 9}, Size: 100})
	})
	sim.At(simnet.Epoch.Add(1100*time.Millisecond), func() {
		send.Send(&simnet.Packet{To: simnet.Addr{Node: "recv", Port: 9}, Size: 100})
	})
	Play(sim, recv, Trace{Name: "lag", Steps: []Step{
		{AtSec: 0},
		{AtSec: 1, ExtraDelayMs: 500},
	}}, 0, nil)
	sim.Run()
	if len(arrivals) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(arrivals))
	}
	if arrivals[0] >= 600*time.Millisecond {
		t.Errorf("pre-step packet delayed: %v", arrivals[0])
	}
	if arrivals[1] < 1600*time.Millisecond {
		t.Errorf("post-step packet not delayed: %v", arrivals[1])
	}
}
