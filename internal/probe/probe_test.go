package probe

import (
	"testing"
	"time"

	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/simnet"
)

func testNet(seed int64) (*simnet.Sim, *simnet.Network) {
	s := simnet.NewSim(seed)
	return s, simnet.NewNetwork(s, simnet.NetworkConfig{})
}

func TestProbeMeasuresRTT(t *testing.T) {
	sim, net := testNet(1)
	a := net.AddNode(simnet.NodeConfig{Name: "client", Region: geo.USWest})
	b := net.AddNode(simnet.NodeConfig{Name: "server", Region: geo.USEast})
	Respond(b, 8801, nil)
	pr := NewProber(sim, a)
	var got []time.Duration
	pr.Run(simnet.Addr{Node: "server", Port: 8801}, 10, 100*time.Millisecond, func(r []time.Duration) { got = r })
	sim.Run()
	if len(got) != 10 {
		t.Fatalf("got %d RTTs", len(got))
	}
	model := net.PathModel().RTT(geo.USWest, geo.USEast)
	for _, r := range got {
		if r < model || r > model+10*time.Millisecond {
			t.Errorf("RTT %v vs model %v", r, model)
		}
	}
}

// TestProbeRunReportsOwnReplies runs one prober twice: the second
// callback must see exactly the second Run's replies, not the first
// Run's too.
func TestProbeRunReportsOwnReplies(t *testing.T) {
	sim, net := testNet(7)
	a := net.AddNode(simnet.NodeConfig{Name: "client", Region: geo.USWest})
	b := net.AddNode(simnet.NodeConfig{Name: "server", Region: geo.USEast})
	Respond(b, 8801, nil)
	pr := NewProber(sim, a)
	target := simnet.Addr{Node: "server", Port: 8801}
	var first, second []time.Duration
	pr.Run(target, 5, 100*time.Millisecond, func(r []time.Duration) { first = r })
	sim.Run()
	pr.Run(target, 3, 100*time.Millisecond, func(r []time.Duration) { second = r })
	sim.Run()
	if len(first) != 5 {
		t.Errorf("first Run got %d RTTs, want 5", len(first))
	}
	if len(second) != 3 {
		t.Errorf("second Run got %d RTTs, want its own 3", len(second))
	}
}

func TestProbeTimeoutOnSilentTarget(t *testing.T) {
	sim, net := testNet(2)
	a := net.AddNode(simnet.NodeConfig{Name: "client", Region: geo.USWest})
	// Target exists but nothing listens on the port (ICMP-blocked style).
	net.AddNode(simnet.NodeConfig{Name: "server", Region: geo.USEast})
	pr := NewProber(sim, a)
	done := 0
	pr.Run(simnet.Addr{Node: "server", Port: 8801}, 3, 10*time.Millisecond, func(r []time.Duration) {
		done++
		if len(r) != 0 {
			t.Errorf("expected no RTTs, got %d", len(r))
		}
	})
	sim.Run()
	if done != 1 {
		t.Fatalf("done fired %d times, want once after all 3 timeouts", done)
	}
}

func TestProbeUnderLoss(t *testing.T) {
	sim, net := testNet(3)
	a := net.AddNode(simnet.NodeConfig{Name: "client", Region: geo.USWest, LossProb: 0.4})
	b := net.AddNode(simnet.NodeConfig{Name: "server", Region: geo.USEast})
	Respond(b, 9000, nil)
	pr := NewProber(sim, a)
	var got []time.Duration
	done := 0
	pr.Run(simnet.Addr{Node: "server", Port: 9000}, 50, 50*time.Millisecond, func(r []time.Duration) {
		done++
		got = r
	})
	sim.Run()
	if done != 1 {
		t.Fatalf("done fired %d times, want once", done)
	}
	if len(got) == 0 || len(got) >= 50 {
		t.Errorf("%d of 50 replies, want some but not all at 40%% loss", len(got))
	}
}

func TestProbeZeroCount(t *testing.T) {
	sim, net := testNet(4)
	a := net.AddNode(simnet.NodeConfig{Name: "client", Region: geo.USWest})
	pr := NewProber(sim, a)
	called := false
	pr.Run(simnet.Addr{Node: "client", Port: 1}, 0, time.Second, func(r []time.Duration) {
		called = true
		if r != nil {
			t.Errorf("non-nil results: %v", r)
		}
	})
	sim.Run()
	if !called {
		t.Error("done not called for zero probes")
	}
}

func TestRespondPassesNonPings(t *testing.T) {
	sim, net := testNet(5)
	a := net.AddNode(simnet.NodeConfig{Name: "a", Region: geo.USEast})
	b := net.AddNode(simnet.NodeConfig{Name: "b", Region: geo.USEast2})
	got := 0
	Respond(b, 8801, func(pkt *simnet.Packet) { got++ })
	a.Send(&simnet.Packet{To: simnet.Addr{Node: "b", Port: 8801}, Size: 100, Payload: "media"})
	a.Send(&simnet.Packet{From: simnet.Addr{Port: ProbePort}, To: simnet.Addr{Node: "b", Port: 8801}, Size: ProbeSize, Payload: Ping{ID: 1}})
	sim.Run()
	if got != 1 {
		t.Errorf("next handler saw %d packets, want 1 (media only)", got)
	}
}

func TestCloseUnbinds(t *testing.T) {
	sim, net := testNet(6)
	a := net.AddNode(simnet.NodeConfig{Name: "a", Region: geo.USEast})
	b := net.AddNode(simnet.NodeConfig{Name: "b", Region: geo.USEast2})
	Respond(b, 8801, nil)
	pr := NewProber(sim, a)
	pr.Close()
	// Replies to a closed prober are silently dropped (no handler), so
	// every probe times out.
	var got []time.Duration
	done := false
	pr.Run(simnet.Addr{Node: "b", Port: 8801}, 2, 10*time.Millisecond, func(r []time.Duration) {
		done = true
		got = r
	})
	sim.Run()
	if !done || len(got) != 0 {
		t.Errorf("closed prober: done=%v with %d RTTs, want done with none", done, len(got))
	}
}
