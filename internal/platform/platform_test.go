package platform

import (
	"reflect"
	"testing"
	"time"

	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/probe"
	"github.com/vcabench/vcabench/internal/simnet"
)

func newTestbed(seed int64) (*simnet.Sim, *simnet.Network) {
	s := simnet.NewSim(seed)
	return s, simnet.NewNetwork(s, simnet.NetworkConfig{})
}

func addClient(n *simnet.Network, name string, r geo.Region) *simnet.Node {
	return n.AddNode(simnet.NodeConfig{Name: name, Region: r})
}

func TestDefaultConfigs(t *testing.T) {
	ports := map[Kind]int{Zoom: 8801, Webex: 9000, Meet: 19305}
	audio := map[Kind]float64{Zoom: 90_000, Webex: 45_000, Meet: 40_000}
	for _, k := range Kinds {
		cfg := DefaultConfig(k)
		if cfg.MediaPort != ports[k] {
			t.Errorf("%s port = %d, want %d", k, cfg.MediaPort, ports[k])
		}
		if cfg.AudioBps != audio[k] {
			t.Errorf("%s audio = %v", k, cfg.AudioBps)
		}
		if cfg.Policy == nil {
			t.Errorf("%s has no policy", k)
		}
	}
}

func TestUnknownKindPanics(t *testing.T) {
	for _, k := range []Kind{"teams", "zoom@nope", "@relay"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DefaultConfig(%q): expected panic", k)
				}
			}()
			DefaultConfig(k)
		}()
		if k.Known() {
			t.Errorf("%q reported as known", k)
		}
	}
}

// Each variant is its base's calibrated profile with exactly one edit:
// identity fields (Kind, port, IP range, policy) stay the base's, so
// RNG streams and node names match, and the edited fields are the
// counterfactual the variant names.
func TestVariants(t *testing.T) {
	cases := []struct {
		variant, base Kind
		edit          func(*Config)
	}{
		{WebexPaidTier, Webex, func(c *Config) {
			c.PaidTier = true
			c.USPoPs = []geo.Region{geo.PoPUSEast, geo.PoPUSCentral, geo.PoPUSWest}
			c.EUPoPs = []geo.Region{geo.PoPEUWest, geo.PoPEUCentral, geo.PoPEUNorth}
		}},
		{MeetSingleRelay, Meet, func(c *Config) {
			c.PerClientEndpoints = false
			c.EUPoPs = nil
		}},
		{ZoomNoLB, Zoom, func(c *Config) { c.RegionalLB = false }},
		{ZoomRelay, Zoom, func(c *Config) { c.P2PWhenPair = false }},
	}
	for _, c := range cases {
		if !c.variant.Known() || c.variant.Base() != c.base {
			t.Errorf("%s: Known=%v Base=%q, want known with base %q", c.variant, c.variant.Known(), c.variant.Base(), c.base)
		}
		got, base := DefaultConfig(c.variant), DefaultConfig(c.base)
		if got.Kind != c.base || got.MediaPort != base.MediaPort || got.IPBase != base.IPBase ||
			reflect.TypeOf(got.Policy) != reflect.TypeOf(base.Policy) {
			t.Errorf("%s: identity fields differ from %s: %+v", c.variant, c.base, got)
		}
		want := base
		c.edit(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.variant, got, want)
		}
		if reflect.DeepEqual(got, base) {
			t.Errorf("%s equals its base profile", c.variant)
		}
	}
	for _, k := range Kinds {
		if !k.Known() || k.Base() != k {
			t.Errorf("calibrated %s: Known=%v Base=%q", k, k.Known(), k.Base())
		}
	}
}

// startSession builds an n-party session with a host in hostRegion and
// receivers in the given regions; returns received packet counters.
func startSession(t *testing.T, p *Platform, net *simnet.Network, hostRegion geo.Region, recvRegions []geo.Region, prefix string) (*Session, []*Attachment, []*int) {
	t.Helper()
	s := p.CreateSession()
	host := addClient(net, prefix+"-host", hostRegion)
	counts := []*int{new(int)}
	atts := []*Attachment{nil}
	atts[0] = s.Join(host, JoinOpts{Port: 5004, OnPacket: func(pkt *simnet.Packet) { *counts[0]++ }})
	for i, r := range recvRegions {
		c := new(int)
		node := addClient(net, prefix+"-r"+string(rune('a'+i)), r)
		atts = append(atts, s.Join(node, JoinOpts{Port: 5004, OnPacket: func(pkt *simnet.Packet) { *c++ }}))
		counts = append(counts, c)
	}
	s.Start()
	return s, atts, counts
}

func TestRelayFanOut(t *testing.T) {
	sim, net := newTestbed(1)
	p := New(Webex, net)
	s, atts, counts := startSession(t, p, net, geo.USEast,
		[]geo.Region{geo.USWest, geo.USCentral}, "w")
	// Host sends 10 packets; both receivers (not the host) get them.
	for i := 0; i < 10; i++ {
		atts[0].Send(1000, i)
	}
	sim.RunFor(10 * time.Second)
	if *counts[0] != 0 {
		t.Errorf("host received its own media: %d", *counts[0])
	}
	if *counts[1] != 10 || *counts[2] != 10 {
		t.Errorf("receivers got %d/%d, want 10/10", *counts[1], *counts[2])
	}
	if len(s.Endpoints()) != 1 {
		t.Errorf("webex session endpoints = %d, want 1", len(s.Endpoints()))
	}
	if s.P2P() {
		t.Error("relay session marked P2P")
	}
}

func TestWebexAlwaysUSEast(t *testing.T) {
	_, net := newTestbed(2)
	p := New(Webex, net)
	for i, host := range []geo.Region{geo.USWest, geo.CH, geo.UKWest} {
		s, _, _ := startSession(t, p, net, host, []geo.Region{geo.USEast}, "w"+string(rune('0'+i)))
		// Webex free tier: all sessions relayed via US-East regardless of
		// host location... except two-party sessions have no P2P on
		// Webex either, so an endpoint always exists.
		ep := s.Endpoints()[0]
		if ep.Region.Name != geo.PoPUSEast.Name {
			t.Errorf("host %s: endpoint at %s, want %s", host.Name, ep.Region.Name, geo.PoPUSEast.Name)
		}
		s.End()
	}
}

func TestWebexPaidTierGoesLocal(t *testing.T) {
	_, net := newTestbed(3)
	p := New(WebexPaidTier, net)
	s, _, _ := startSession(t, p, net, geo.CH, []geo.Region{geo.FR}, "wp")
	if z := s.Endpoints()[0].Region.Zone; z != geo.ZoneEU {
		t.Errorf("paid-tier EU session relayed via %s", s.Endpoints()[0].Region.Name)
	}
}

func TestZoomP2PForPairs(t *testing.T) {
	sim, net := newTestbed(4)
	p := New(Zoom, net)
	s, atts, counts := startSession(t, p, net, geo.USEast, []geo.Region{geo.USWest}, "z")
	if !s.P2P() {
		t.Fatal("2-party Zoom session should be P2P")
	}
	if len(s.Endpoints()) != 0 {
		t.Errorf("P2P session has %d endpoints", len(s.Endpoints()))
	}
	atts[0].Send(500, "hi")
	atts[1].Send(500, "yo")
	sim.RunFor(10 * time.Second)
	if *counts[0] != 1 || *counts[1] != 1 {
		t.Errorf("p2p delivery %d/%d", *counts[0], *counts[1])
	}
}

func TestZoomRelayForThree(t *testing.T) {
	_, net := newTestbed(5)
	p := New(Zoom, net)
	s, _, _ := startSession(t, p, net, geo.USEast, []geo.Region{geo.USWest, geo.USCentral}, "z3")
	if s.P2P() {
		t.Error("3-party session must use a relay")
	}
	if len(s.Endpoints()) != 1 {
		t.Fatalf("endpoints = %d", len(s.Endpoints()))
	}
	// US host => endpoint near the host (US-East PoP).
	if got := s.Endpoints()[0].Region.Name; got != geo.PoPUSEast.Name {
		t.Errorf("endpoint at %s", got)
	}
}

func TestZoomRegionalLoadBalancing(t *testing.T) {
	_, net := newTestbed(6)
	p := New(Zoom, net)
	seen := map[string]bool{}
	for i := 0; i < 30; i++ {
		s := p.CreateSession()
		h := addClient(net, "eu-h"+string(rune('a'+i%26))+string(rune('a'+i/26)), geo.CH)
		r := addClient(net, "eu-r"+string(rune('a'+i%26))+string(rune('a'+i/26)), geo.FR)
		s.Join(h, JoinOpts{Port: 5004})
		s.Join(r, JoinOpts{Port: 5004})
		x := addClient(net, "eu-x"+string(rune('a'+i%26))+string(rune('a'+i/26)), geo.DE)
		s.Join(x, JoinOpts{Port: 5004}) // 3 parties => relay
		s.Start()
		seen[s.Endpoints()[0].Region.Name] = true
		s.End()
	}
	if len(seen) != 3 {
		t.Errorf("EU Zoom sessions used %d distinct US PoPs, want 3 (LB bands): %v", len(seen), seen)
	}
	for name := range seen {
		r, _ := geo.Lookup(name)
		if r.Zone != geo.ZoneUS {
			t.Errorf("Zoom free tier relayed in %s", name)
		}
	}
}

func TestMeetPerClientEndpointsAndStickiness(t *testing.T) {
	sim, net := newTestbed(7)
	p := New(Meet, net)
	hostNode := addClient(net, "m-host", geo.USEast)
	recvNode := addClient(net, "m-recv", geo.UKSouth)

	distinct := map[string]bool{}
	for i := 0; i < 20; i++ {
		s := p.CreateSession()
		got := 0
		s.Join(hostNode, JoinOpts{Port: 5004})
		ra := s.Join(recvNode, JoinOpts{Port: 5004, OnPacket: func(*simnet.Packet) { got++ }})
		s.Start()
		if ra.Endpoint().Region.Zone != geo.ZoneEU {
			t.Errorf("UK client served from %s", ra.Endpoint().Region.Name)
		}
		distinct[ra.Endpoint().Name] = true
		s.End()
	}
	if len(distinct) > 2 {
		t.Errorf("Meet client saw %d endpoints over 20 sessions, want <= 2", len(distinct))
	}
	// Media path crosses both endpoints.
	s := p.CreateSession()
	got := 0
	ha := s.Join(hostNode, JoinOpts{Port: 5004})
	s.Join(recvNode, JoinOpts{Port: 5004, OnPacket: func(*simnet.Packet) { got++ }})
	s.Start()
	if len(s.Endpoints()) != 2 {
		t.Fatalf("meet 2-party endpoints = %d, want 2 (no P2P on Meet)", len(s.Endpoints()))
	}
	ha.Send(900, "x")
	sim.RunFor(10 * time.Second)
	if got != 1 {
		t.Errorf("cross-endpoint delivery failed: %d", got)
	}
}

func TestEndpointChurnZoomVsMeet(t *testing.T) {
	_, net := newTestbed(8)
	pz := New(Zoom, net)
	host := addClient(net, "c-host", geo.USEast)
	peers := []*simnet.Node{
		addClient(net, "c-p1", geo.USWest),
		addClient(net, "c-p2", geo.USCentral),
	}
	distinct := map[string]bool{}
	for i := 0; i < 20; i++ {
		s := pz.CreateSession()
		s.Join(host, JoinOpts{Port: 5004})
		for _, pn := range peers {
			s.Join(pn, JoinOpts{Port: 5004})
		}
		s.Start()
		distinct[s.Endpoints()[0].Name] = true
		s.End()
	}
	if len(distinct) != 20 {
		t.Errorf("Zoom distinct endpoints over 20 sessions = %d, want 20", len(distinct))
	}
}

func TestRateFeedbackLoop(t *testing.T) {
	sim, net := newTestbed(9)
	p := New(Meet, net)
	s := p.CreateSession()
	h := addClient(net, "f-h", geo.USEast)
	r1 := addClient(net, "f-r1", geo.USWest)
	r2 := addClient(net, "f-r2", geo.USCentral)
	s.Join(h, JoinOpts{Port: 5004})
	a1 := s.Join(r1, JoinOpts{Port: 5004})
	s.Join(r2, JoinOpts{Port: 5004})
	s.Start()
	var targets []float64
	// The host's encoder follows target changes.
	s.parts[0].OnTarget(func(bps float64) { targets = append(targets, bps) })
	if len(targets) != 1 {
		t.Fatalf("OnTarget after Start should fire immediately, got %d", len(targets))
	}
	initial := targets[0]
	// Receiver 1 reports heavy loss at a goodput of 200 kbps.
	sim.After(500*time.Millisecond, func() {
		a1.ReportReceiverStats(0.10, 200_000)
	})
	sim.RunFor(3 * time.Second)
	final := s.TargetBps()
	if final >= initial {
		t.Errorf("target did not adapt down: %v -> %v", initial, final)
	}
	if final < 100_000 {
		t.Errorf("target collapsed below floor: %v", final)
	}
	s.End()
}

func TestSessionLifecyclePanics(t *testing.T) {
	_, net := newTestbed(10)
	p := New(Zoom, net)
	s := p.CreateSession()
	h := addClient(net, "l-h", geo.USEast)
	s.Join(h, JoinOpts{Port: 5004})
	assertPanic(t, "single participant Start", func() { s.Start() })
	assertPanic(t, "zero port join", func() { s.Join(h, JoinOpts{}) })
	r := addClient(net, "l-r", geo.USWest)
	a := s.Join(r, JoinOpts{Port: 5004})
	_ = a
	s.Start()
	assertPanic(t, "double start", func() { s.Start() })
	assertPanic(t, "join after start", func() { s.Join(h, JoinOpts{Port: 5004}) })
}

func assertPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestProbeEndpointRTT(t *testing.T) {
	sim, net := newTestbed(11)
	p := New(Webex, net)
	s, atts, _ := startSession(t, p, net, geo.USWest, []geo.Region{geo.USWest2}, "pr")
	ep := s.Endpoints()[0]
	// tcpping from the US-West host to the (US-East) endpoint.
	pr := probe.NewProber(sim, atts[0].Node())
	var rtts []time.Duration
	pr.Run(ep.Addr(p.MediaPort()), 20, 50*time.Millisecond, func(r []time.Duration) { rtts = r })
	sim.RunFor(10 * time.Second)
	if len(rtts) != 20 {
		t.Fatalf("got %d RTTs", len(rtts))
	}
	model := net.PathModel().RTT(geo.USWest, geo.PoPUSEast)
	for _, r := range rtts {
		if r < model || r > model+20*time.Millisecond {
			t.Errorf("RTT %v vs model %v", r, model)
		}
	}
}

func TestResolve(t *testing.T) {
	_, net := newTestbed(12)
	p := New(Zoom, net)
	s, _, _ := startSession(t, p, net, geo.USEast, []geo.Region{geo.USWest, geo.CH}, "rv")
	ep := s.Endpoints()[0]
	ip, ok := p.Resolve(ep.Name)
	if !ok {
		t.Fatal("endpoint not resolvable")
	}
	if ip[0] != 170 || ip[1] != 114 {
		t.Errorf("zoom endpoint IP = %v", ip)
	}
	if _, ok := p.Resolve("nonexistent"); ok {
		t.Error("resolved unknown node")
	}
}

func TestPolicyShapes(t *testing.T) {
	sim, _ := newTestbed(13)
	rng := sim.Fork("t")
	zp, wp, mp := NewZoomPolicy(), NewWebexPolicy(), NewMeetPolicy()
	// Initial targets follow the paper's rate table.
	z3 := zp.InitialTarget(3, false, rng)
	if z3 < 600_000 || z3 > 800_000 {
		t.Errorf("zoom relay target = %v", z3)
	}
	z2 := zp.InitialTarget(2, true, rng)
	if z2 < 900_000 || z2 > 1_100_000 {
		t.Errorf("zoom p2p target = %v", z2)
	}
	w := wp.InitialTarget(5, false, rng)
	if w < 2_400_000 || w > 2_600_000 {
		t.Errorf("webex target = %v", w)
	}
	m2 := mp.InitialTarget(2, false, rng)
	if m2 < 1_600_000 || m2 > 2_000_000 {
		t.Errorf("meet 2-party target = %v", m2)
	}
	m5 := mp.InitialTarget(5, false, rng)
	if m5 < 350_000 || m5 > 650_000 {
		t.Errorf("meet multi target = %v", m5)
	}
	// Meet variance exceeds Webex variance across sessions.
	spread := func(pol RatePolicy, n int) float64 {
		lo, hi := 1e18, 0.0
		for i := 0; i < 200; i++ {
			v := pol.InitialTarget(n, false, rng)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return (hi - lo) / lo
	}
	if spread(mp, 5) < spread(wp, 5)*3 {
		t.Error("Meet session variance should dwarf Webex's")
	}
	// Adjustment direction under loss.
	for name, pol := range map[string]RatePolicy{"zoom": zp, "webex": wp, "meet": mp} {
		cur := pol.InitialTarget(3, false, rng)
		down := pol.Adjust(cur, 0.5, cur/4)
		if down >= cur {
			t.Errorf("%s did not reduce under 50%% loss", name)
		}
		if down < pol.Floor() {
			t.Errorf("%s went below floor", name)
		}
	}
	// Webex tolerates 10% loss without flinching; Meet does not.
	if wp.Adjust(2_500_000, 0.10, 1_000_000) < 2_500_000 {
		t.Error("webex should shrug off 10% loss (sluggish control)")
	}
	if mp.Adjust(500_000, 0.10, 300_000) >= 500_000 {
		t.Error("meet should react to 10% loss")
	}
}
