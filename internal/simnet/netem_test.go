package simnet

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/vcabench/vcabench/internal/geo"
)

func newTestNet(seed int64) (*Sim, *Network) {
	s := NewSim(seed)
	n := NewNetwork(s, NetworkConfig{})
	return s, n
}

func TestBasicDelivery(t *testing.T) {
	s, n := newTestNet(1)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
	b := n.AddNode(NodeConfig{Name: "b", Region: geo.USWest})
	var got *Packet
	b.Bind(9000, func(p *Packet) { got = p })
	if err := a.Send(&Packet{To: Addr{"b", 9000}, Size: 100}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.From.Node != "a" {
		t.Errorf("From = %v", got.From)
	}
	oneWay := got.ArrivedAt.Sub(got.SentAt)
	base := n.PathModel().OneWay(geo.USEast, geo.USWest)
	if oneWay < base || oneWay > base+5*time.Millisecond {
		t.Errorf("one-way = %v, model = %v", oneWay, base)
	}
}

func TestSendUnknownNode(t *testing.T) {
	_, n := newTestNet(1)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
	if err := a.Send(&Packet{To: Addr{"ghost", 1}, Size: 10}); err == nil {
		t.Error("expected error")
	}
}

func TestUnboundPortDropped(t *testing.T) {
	s, n := newTestNet(1)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
	b := n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2})
	delivered := false
	b.Bind(1, func(p *Packet) { delivered = true })
	a.Send(&Packet{To: Addr{"b", 2}, Size: 10}) // port 2 unbound
	s.Run()
	if delivered {
		t.Error("handler on port 1 saw packet for port 2")
	}
	// Still counted by the downlink (it crossed the wire).
	if b.DownlinkStats().Packets != 1 {
		t.Errorf("downlink packets = %d", b.DownlinkStats().Packets)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	_, n := newTestNet(1)
	n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n.AddNode(NodeConfig{Name: "a", Region: geo.USWest})
}

func TestFlowFIFONoReordering(t *testing.T) {
	s, n := newTestNet(7)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
	b := n.AddNode(NodeConfig{Name: "b", Region: geo.CH})
	var seqs []int
	b.Bind(5, func(p *Packet) { seqs = append(seqs, p.Payload.(int)) })
	for i := 0; i < 200; i++ {
		i := i
		s.After(time.Duration(i)*100*time.Microsecond, func() {
			a.Send(&Packet{To: Addr{"b", 5}, Size: 1200, Payload: i})
		})
	}
	s.Run()
	if len(seqs) != 200 {
		t.Fatalf("delivered %d/200", len(seqs))
	}
	for i, v := range seqs {
		if v != i {
			t.Fatalf("reordered at %d: %v", i, v)
		}
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 10 packets of 1000B(+28) through a 1 Mbps uplink take ~82ms to
	// serialize; the last arrival must reflect that queueing.
	s, n := newTestNet(1)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast, UplinkBps: 1_000_000})
	b := n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2})
	var last time.Time
	count := 0
	b.Bind(5, func(p *Packet) { last = p.ArrivedAt; count++ })
	for i := 0; i < 10; i++ {
		a.Send(&Packet{To: Addr{"b", 5}, Size: 1000})
	}
	s.Run()
	if count != 10 {
		t.Fatalf("delivered %d/10", count)
	}
	serialize := time.Duration(10 * (1000 + WireOverhead) * 8 * 1000) // ns at 1Mbps: bits*1000ns
	elapsed := last.Sub(Epoch)
	if elapsed < serialize {
		t.Errorf("last arrival %v < serialization floor %v", elapsed, serialize)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	s, n := newTestNet(1)
	a := n.AddNode(NodeConfig{
		Name: "a", Region: geo.USEast,
		UplinkBps: 100_000, QueueBytes: 5000,
	})
	n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2})
	for i := 0; i < 100; i++ {
		a.Send(&Packet{To: Addr{"b", 5}, Size: 1200})
	}
	s.Run()
	st := a.UplinkStats()
	if st.DropsQueue == 0 {
		t.Error("expected tail drops")
	}
	if st.Packets+st.DropsQueue != 100 {
		t.Errorf("conservation: %d sent + %d dropped != 100", st.Packets, st.DropsQueue)
	}
}

func TestRandomLoss(t *testing.T) {
	s, n := newTestNet(123)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
	b := n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2, LossProb: 0.3})
	got := 0
	b.Bind(5, func(p *Packet) { got++ })
	const sent = 2000
	for i := 0; i < sent; i++ {
		a.Send(&Packet{To: Addr{"b", 5}, Size: 100})
	}
	s.Run()
	frac := float64(got) / sent
	if frac < 0.64 || frac > 0.76 {
		t.Errorf("delivered fraction = %.3f, want ~0.70", frac)
	}
	if b.DownlinkStats().DropsRandom != int64(sent-got) {
		t.Errorf("loss accounting mismatch")
	}
}

// SetDownlinkLoss installs (and replaces) ingress loss after the node
// exists — the seam campaign netem conditions use.
func TestSetDownlinkLoss(t *testing.T) {
	s, n := newTestNet(124)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
	b := n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2})
	got := 0
	b.Bind(5, func(p *Packet) { got++ })
	b.SetDownlinkLoss(0.4)
	const sent = 2000
	for i := 0; i < sent; i++ {
		a.Send(&Packet{To: Addr{"b", 5}, Size: 100})
	}
	s.Run()
	frac := float64(got) / sent
	if frac < 0.54 || frac > 0.66 {
		t.Errorf("delivered fraction = %.3f, want ~0.60", frac)
	}
	if b.DownlinkStats().DropsRandom != int64(sent-got) {
		t.Error("loss accounting mismatch")
	}
	// Loss can be turned back off.
	b.SetDownlinkLoss(0)
	before := got
	for i := 0; i < 100; i++ {
		a.Send(&Packet{To: Addr{"b", 5}, Size: 100})
	}
	s.Run()
	if got-before != 100 {
		t.Errorf("delivered %d/100 after disabling loss", got-before)
	}
}

// lossRun sends 600 numbered packets from a to b, turning b's ingress
// loss on after the first 200 and off after the next 200, and returns
// which packets b received. With eager set, b's loss stream is forked
// at AddNode time, as a node's stream once was.
func lossRun(eager bool) (got []bool, b *Node) {
	s, n := newTestNet(125)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
	b = n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2})
	if eager {
		b.loss.r = s.Fork("simnet.loss.b")
	}
	got = make([]bool, 600)
	b.Bind(5, func(p *Packet) { got[p.Payload.(int)] = true })
	for i := range got {
		switch i {
		case 200:
			b.SetDownlinkLoss(0.3)
		case 400:
			b.SetDownlinkLoss(0)
		}
		a.Send(&Packet{To: Addr{"b", 5}, Size: 100, Payload: i})
		s.RunFor(time.Millisecond)
	}
	s.Run()
	return got, b
}

// TestLossStreamForkedOnFirstDraw: a node forks its loss stream on its
// first loss draw, not at AddNode. Loss turned on mid-run drops exactly
// the packets an eagerly forked stream drops, and a node that never
// draws never forks one.
func TestLossStreamForkedOnFirstDraw(t *testing.T) {
	lazy, b := lossRun(false)
	eager, _ := lossRun(true)
	drops := 0
	for i := range lazy {
		if lazy[i] != eager[i] {
			t.Fatalf("packet %d: delivered %v with a late fork, %v with an eager one", i, lazy[i], eager[i])
		}
		if !lazy[i] {
			drops++
			if i < 200 || i >= 400 {
				t.Errorf("packet %d dropped while loss was off", i)
			}
		}
	}
	if drops == 0 || int64(drops) != b.DownlinkStats().DropsRandom {
		t.Errorf("%d packets missing, %d random drops counted; want the same nonzero count", drops, b.DownlinkStats().DropsRandom)
	}
	if b.up.rng != b.down.rng {
		t.Error("the up and down pipes draw from different loss streams")
	}

	s, n := newTestNet(126)
	x := n.AddNode(NodeConfig{Name: "x", Region: geo.USEast})
	y := n.AddNode(NodeConfig{Name: "y", Region: geo.USWest})
	y.Bind(5, func(*Packet) {})
	for i := 0; i < 100; i++ {
		x.Send(&Packet{To: Addr{"y", 5}, Size: 100})
	}
	s.Run()
	if x.loss.r != nil || y.loss.r != nil {
		t.Error("a lossless run forked a loss stream")
	}
}

func TestTapSeesBothDirections(t *testing.T) {
	s, n := newTestNet(1)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
	b := n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2})
	b.Bind(5, func(p *Packet) {})
	var outs, ins int
	a.Tap(func(d Direction, p *Packet, at time.Time) {
		if d == DirOut {
			outs++
		} else {
			ins++
		}
	})
	var bIns int
	b.Tap(func(d Direction, p *Packet, at time.Time) {
		if d == DirIn {
			bIns++
		}
	})
	a.Send(&Packet{To: Addr{"b", 5}, Size: 64})
	s.Run()
	if outs != 1 || ins != 0 || bIns != 1 {
		t.Errorf("taps: a.out=%d a.in=%d b.in=%d", outs, ins, bIns)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []time.Duration {
		s, n := newTestNet(99)
		a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
		b := n.AddNode(NodeConfig{Name: "b", Region: geo.CH, DownlinkBps: 2_000_000})
		var lat []time.Duration
		b.Bind(5, func(p *Packet) { lat = append(lat, p.ArrivedAt.Sub(p.SentAt)) })
		s.Every(10*time.Millisecond, func() {
			a.Send(&Packet{To: Addr{"b", 5}, Size: 1100})
		})
		s.RunUntil(Epoch.Add(2 * time.Second))
		return lat
	}
	r1, r2 := run(), run()
	if len(r1) != len(r2) || len(r1) == 0 {
		t.Fatalf("lengths %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, r1[i], r2[i])
		}
	}
}

func TestShaperRateEnforced(t *testing.T) {
	// A 500 Kbps downlink shaper must cap long-run goodput near 500 Kbps
	// even when offered 2 Mbps.
	s, n := newTestNet(5)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
	b := n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2, QueueBytes: 64 * 1024})
	b.SetDownlinkShaper(NewTokenBucket(500_000, 10*1024))
	var bytes int64
	var lastArr time.Time
	b.Bind(5, func(p *Packet) { bytes += int64(p.Size); lastArr = p.ArrivedAt })
	// Offer 2 Mbps for 4 seconds: 1000B every 4ms.
	ev := s.Every(4*time.Millisecond, func() {
		a.Send(&Packet{To: Addr{"b", 5}, Size: 1000})
	})
	s.RunUntil(Epoch.Add(4 * time.Second))
	ev.Cancel()
	s.Run()
	dur := lastArr.Sub(Epoch).Seconds()
	rate := float64(bytes) * 8 / dur
	if rate > 560_000 {
		t.Errorf("shaped goodput = %.0f bps, want <= ~520k", rate)
	}
	if rate < 350_000 {
		t.Errorf("shaped goodput = %.0f bps suspiciously low", rate)
	}
	if b.DownlinkStats().DropsQueue == 0 {
		t.Error("expected queue drops at 4x overload")
	}
}

func TestTokenBucketBurst(t *testing.T) {
	tb := NewTokenBucket(1_000_000, 8000)
	now := Epoch
	// A full bucket passes 8000 bytes immediately.
	if at := tb.Admit(now, 8000); !at.Equal(now) {
		t.Errorf("burst not admitted immediately: %v", at.Sub(now))
	}
	// The next kilobyte must wait ~8ms at 1 Mbps.
	at := tb.Admit(now, 1000)
	want := now.Add(8 * time.Millisecond)
	if at.Before(want.Add(-time.Millisecond)) || at.After(want.Add(time.Millisecond)) {
		t.Errorf("post-burst admit at %v, want ~%v", at.Sub(now), want.Sub(now))
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	tb := NewTokenBucket(0, 0)
	if at := tb.Admit(Epoch, 1<<20); !at.Equal(Epoch) {
		t.Error("zero-rate bucket should be a no-op")
	}
}

// Property: token bucket departure times are nondecreasing and never in
// the past; long-run rate never exceeds configured rate by more than the
// burst allowance.
func TestTokenBucketProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		tb := NewTokenBucket(250_000, 4096)
		now := Epoch
		var total int
		var last time.Time = Epoch
		for _, raw := range sizes {
			size := int(raw)%1400 + 1
			at := tb.Admit(now, size)
			if at.Before(now) || at.Before(last) {
				return false
			}
			last = at
			now = at
			total += size
		}
		if len(sizes) == 0 {
			return true
		}
		elapsed := last.Sub(Epoch).Seconds()
		budget := 250_000.0/8*elapsed + 4096 + 1400
		return float64(total) <= budget+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property over arbitrary time-ordered arrival sequences — including
// arrivals that land while an earlier admission's departure is still
// pending, which the pipe never generates but the exported API allows:
// admission times are monotonic and never precede the arrival, and the
// bytes admitted by any departure time never exceed the configured
// rate times elapsed time plus one burst. (An earlier Admit based the
// deficit wait on the arrival instead of the refill clock, moving the
// clock backwards and double-granting the overlap.)
func TestTokenBucketAdmitProperty(t *testing.T) {
	const (
		rateBps = 500_000
		burst   = 8192
		maxPkt  = 2048
	)
	f := func(raw []uint32) bool {
		tb := NewTokenBucket(rateBps, burst)
		now := Epoch
		var start, last time.Time
		var admitted float64
		for _, r := range raw {
			size := int(r&0x7ff) + 1                             // 1..2048 bytes
			gap := time.Duration(r>>11&0x3ff) * time.Millisecond // 0..1023 ms between arrivals
			now = now.Add(gap)
			at := tb.Admit(now, size)
			if at.Before(now) {
				return false
			}
			if !last.IsZero() && at.Before(last) {
				return false // admission times ran backwards
			}
			last = at
			if start.IsZero() {
				start = now // bucket primes (full) at first admission
			}
			admitted += float64(size)
			budget := rateBps/8.0*at.Sub(start).Seconds() + burst + maxPkt
			if admitted > budget+1 {
				return false // throughput exceeded rate + one burst
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// SetDownlinkState swaps the whole downlink configuration atomically,
// and DownlinkAt applies one at a scheduled virtual time.
func TestDownlinkStateReconfig(t *testing.T) {
	s, n := newTestNet(5)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
	b := n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2, QueueBytes: 1 << 20})
	var arrivals []time.Time
	b.Bind(7, func(p *Packet) { arrivals = append(arrivals, s.Now()) })

	send := func(at time.Time) {
		s.At(at, func() { a.Send(&Packet{To: Addr{Node: "b", Port: 7}, Size: 1000}) })
	}
	// Phase 1 (unshaped), phase 2 (10 kbps cap, tiny burst: ~0.8 s per
	// packet), phase 3 (cap lifted, 200 ms extra delay).
	b.DownlinkAt(Epoch.Add(1*time.Second), LinkState{CapBps: 10_000, Burst: 512})
	b.DownlinkAt(Epoch.Add(3*time.Second), LinkState{ExtraDelay: 200 * time.Millisecond})
	send(Epoch.Add(100 * time.Millisecond))
	send(Epoch.Add(1100 * time.Millisecond))
	send(Epoch.Add(3100 * time.Millisecond))
	s.Run()

	if len(arrivals) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(arrivals))
	}
	if d := arrivals[0].Sub(Epoch); d > 500*time.Millisecond {
		t.Errorf("unshaped packet took %v", d)
	}
	if d := arrivals[1].Sub(Epoch); d < 1500*time.Millisecond {
		t.Errorf("capped packet arrived too fast: %v", d)
	}
	if d := arrivals[2].Sub(Epoch); d < 3300*time.Millisecond || d > 3500*time.Millisecond {
		t.Errorf("delayed packet arrived at %v, want ~3.3s", d)
	}

	// The zero state restores a pristine downlink.
	b.SetDownlinkState(LinkState{})
	var clean []time.Time
	b.Bind(7, func(p *Packet) { clean = append(clean, s.Now()) })
	send(s.Now().Add(50 * time.Millisecond))
	s.Run()
	if len(clean) != 1 {
		t.Fatalf("post-reset deliveries = %d, want 1", len(clean))
	}
}

// A constant extra delay shifts deliveries; it must not eat queue
// budget and turn into tail drops on a capped link.
func TestExtraDelayDoesNotReduceThroughput(t *testing.T) {
	run := func(delay time.Duration) int {
		s, n := newTestNet(3)
		a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
		b := n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2, QueueBytes: 32 * 1024})
		b.SetDownlinkState(LinkState{CapBps: 2_000_000, Burst: 8192, ExtraDelay: delay})
		delivered := 0
		b.Bind(5, func(p *Packet) { delivered++ })
		// Offer exactly the cap for 10 s: 1000B every 4 ms.
		for i := 0; i < 2500; i++ {
			at := Epoch.Add(time.Duration(i) * 4 * time.Millisecond)
			s.At(at, func() { a.Send(&Packet{To: Addr{"b", 5}, Size: 1000}) })
		}
		s.Run()
		return delivered
	}
	plain, delayed := run(0), run(300*time.Millisecond)
	if delayed < plain-plain/50 {
		t.Errorf("300ms constant delay cost throughput: %d vs %d delivered", delayed, plain)
	}
}

func TestPipeConservation(t *testing.T) {
	// Every offered packet is either delivered or counted as a drop.
	s, n := newTestNet(11)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast, UplinkBps: 300_000, QueueBytes: 8 * 1024})
	b := n.AddNode(NodeConfig{Name: "b", Region: geo.USWest, DownlinkBps: 200_000, QueueBytes: 8 * 1024, LossProb: 0.05})
	delivered := 0
	b.Bind(5, func(p *Packet) { delivered++ })
	const offered = 500
	for i := 0; i < offered; i++ {
		i := i
		s.After(time.Duration(i)*2*time.Millisecond, func() {
			a.Send(&Packet{To: Addr{"b", 5}, Size: 900})
		})
	}
	s.Run()
	up, down := a.UplinkStats(), b.DownlinkStats()
	if up.Packets+up.DropsQueue != offered {
		t.Errorf("uplink conservation: %d+%d != %d", up.Packets, up.DropsQueue, offered)
	}
	if down.Packets+down.DropsQueue+down.DropsRandom != up.Packets {
		t.Errorf("downlink conservation: %d+%d+%d != %d",
			down.Packets, down.DropsQueue, down.DropsRandom, up.Packets)
	}
	if int64(delivered) != down.Packets {
		t.Errorf("delivered %d != downlink packets %d", delivered, down.Packets)
	}
}

func TestAddrString(t *testing.T) {
	if s := (Addr{"n", 8801}).String(); s != "n:8801" {
		t.Errorf("Addr.String = %q", s)
	}
	if DirOut.String() != "out" || DirIn.String() != "in" {
		t.Error("Direction.String broken")
	}
}

// TestPathTableMatchesPathModel: the per-pair table memoizes the path
// model, so every ordered node pair's entry, self and same-region pairs
// included, equals OneWay on the two regions, and a packet's one-way
// time is never below it.
func TestPathTableMatchesPathModel(t *testing.T) {
	s, n := newTestNet(2)
	regions := []geo.Region{geo.USEast, geo.USEast, geo.USWest, geo.CH, geo.USEast2, geo.CH}
	var nodes []*Node
	for i, r := range regions {
		nodes = append(nodes, n.AddNode(NodeConfig{Name: string(rune('a' + i)), Region: r}))
	}
	model := n.PathModel()
	for _, src := range nodes {
		if len(src.paths) != len(nodes) {
			t.Fatalf("%s: path row has %d entries, want %d", src.Name(), len(src.paths), len(nodes))
		}
		for _, dst := range nodes {
			if got, want := src.paths[dst.idx].delay, model.OneWay(src.Region(), dst.Region()); got != want {
				t.Fatalf("%s->%s: table delay %v, OneWay %v", src.Name(), dst.Name(), got, want)
			}
		}
	}
	var oneWay []time.Duration
	nodes[1].Bind(5, func(p *Packet) { oneWay = append(oneWay, p.ArrivedAt.Sub(p.SentAt)) })
	nodes[0].Send(&Packet{To: Addr{"b", 5}, Size: 100})
	s.Run()
	if base := model.OneWay(geo.USEast, geo.USEast); len(oneWay) != 1 || oneWay[0] < base {
		t.Fatalf("same-region one-way times %v, want one at or above %v", oneWay, base)
	}
}

// TestFlowFIFOAcrossNodeAdd: adding a node mid-run grows the path table
// without losing any pair's last arrival, so flows that were already
// running stay in order, and the new node's flows are in order too.
// Core jitter far above the send spacing would reorder every flow
// without the per-pair clamp.
func TestFlowFIFOAcrossNodeAdd(t *testing.T) {
	s := NewSim(9)
	n := NewNetwork(s, NetworkConfig{JitterStd: 20 * time.Millisecond})
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
	b := n.AddNode(NodeConfig{Name: "b", Region: geo.CH})
	got := map[string][]int{}
	bind := func(node *Node) {
		node.Bind(5, func(p *Packet) {
			flow := p.From.Node + ">" + node.Name()
			got[flow] = append(got[flow], p.Payload.(int))
		})
	}
	bind(a)
	bind(b)
	sent := map[string]int{}
	send := func(from *Node, to string) {
		flow := from.Name() + ">" + to
		from.Send(&Packet{To: Addr{to, 5}, Size: 200, Payload: sent[flow]})
		sent[flow]++
	}
	var c *Node
	for i := 0; i < 300; i++ {
		s.RunFor(100 * time.Microsecond)
		send(a, "b")
		send(b, "a")
		if i == 150 {
			// Packets of a>b and b>a are still in flight here.
			c = n.AddNode(NodeConfig{Name: "c", Region: geo.USWest})
			bind(c)
		}
		if c != nil {
			send(a, "c")
			send(c, "b")
		}
	}
	s.Run()
	for _, flow := range []string{"a>b", "b>a", "a>c", "c>b"} {
		seqs := got[flow]
		if len(seqs) != sent[flow] || len(seqs) < 100 {
			t.Fatalf("%s: delivered %d of %d", flow, len(seqs), sent[flow])
		}
		for i, v := range seqs {
			if v != i {
				t.Fatalf("%s reordered at %d: got %d", flow, i, v)
			}
		}
	}
}
