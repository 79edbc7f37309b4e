package simnet

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
	"time"

	"github.com/vcabench/vcabench/internal/geo"
)

// --- live-event accounting (Pending / step-probe depth) ---

func TestPendingExcludesCancelled(t *testing.T) {
	s := NewSim(1)
	e1 := s.After(time.Second, func() {})
	s.After(2*time.Second, func() {})
	s.After(3*time.Second, func() {})
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	e1.Cancel()
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending after cancel = %d, want 2 (cancelled events must not count)", got)
	}
	e1.Cancel() // double cancel must not double-decrement
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending after double cancel = %d, want 2", got)
	}
	s.Run()
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
}

func TestStepProbeReportsLiveDepth(t *testing.T) {
	s := NewSim(1)
	// Three live events plus one cancelled one scheduled between them:
	// the probe must see the live backlog only.
	var depths []int
	s.SetStepProbe(func(at time.Time, depth int) { depths = append(depths, depth) })
	s.After(time.Second, func() {})
	ec := s.After(2*time.Second, func() {})
	s.After(3*time.Second, func() {})
	s.After(4*time.Second, func() {})
	ec.Cancel()
	s.Run()
	want := []int{2, 1, 0}
	if len(depths) != len(want) {
		t.Fatalf("probe fired %d times (%v), want %d", len(depths), depths, len(want))
	}
	for i := range want {
		if depths[i] != want[i] {
			t.Fatalf("probe depths = %v, want %v", depths, want)
		}
	}
}

func TestCancelAfterFiringIsNoOp(t *testing.T) {
	s := NewSim(1)
	e := s.After(time.Second, func() {})
	s.After(2*time.Second, func() {})
	s.Run()
	e.Cancel() // already fired: must not corrupt the live count
	s.After(time.Second, func() {})
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1 (cancel of a fired event must be a no-op)", got)
	}
}

// --- Every handle contract ---

func TestEveryHandleTracksNextTick(t *testing.T) {
	s := NewSim(1)
	period := 250 * time.Millisecond
	var ticks int
	ev := s.Every(period, func() { ticks++ })
	if got, want := ev.When(), Epoch.Add(period); !got.Equal(want) {
		t.Fatalf("When() before first tick = %v, want %v", got, want)
	}
	s.RunFor(period) // fire the first tick
	if ticks != 1 {
		t.Fatalf("ticks = %d, want 1", ticks)
	}
	if got, want := ev.When(), Epoch.Add(2*period); !got.Equal(want) {
		t.Fatalf("When() after first tick = %v, want next tick %v", got, want)
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending with one armed ticker = %d, want 1", got)
	}
}

func TestEveryCancelRemovesLiveTick(t *testing.T) {
	s := NewSim(1)
	ev := s.Every(time.Second, func() {})
	ev.Cancel()
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after ticker cancel = %d, want 0", got)
	}
	before := s.Steps()
	s.RunFor(10 * time.Second)
	if got := s.Steps() - before; got != 0 {
		t.Fatalf("cancelled ticker consumed %d steps, want 0", got)
	}
}

func TestEveryCancelFromTick(t *testing.T) {
	s := NewSim(1)
	var ticks int
	var ev *Event
	ev = s.Every(time.Second, func() {
		ticks++
		if ticks == 3 {
			ev.Cancel()
		}
	})
	s.RunFor(time.Minute)
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3 (self-cancel must stop the ticker)", ticks)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after self-cancel = %d, want 0", got)
	}
}

// --- txDuration exactness ---

// TestTxDurationExactCeil cross-checks the 128-bit integer form against
// exact rational arithmetic: txDuration must be ceil(bytes*8e9/bps),
// never below the true serialization time (drains must not beat the
// configured rate) and never a full nanosecond above it.
func TestTxDurationExactCeil(t *testing.T) {
	f := func(nbytes uint16, bps uint32) bool {
		b, r := int(nbytes), int64(bps)
		if r == 0 {
			return txDuration(b, r) == 0
		}
		got := big.NewInt(int64(txDuration(b, r)))
		num := new(big.Int).Mul(big.NewInt(int64(b)*8), big.NewInt(int64(time.Second)))
		den := big.NewInt(r)
		want, rem := new(big.Int).QuoRem(num, den, new(big.Int))
		if rem.Sign() > 0 {
			want.Add(want, big.NewInt(1))
		}
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func TestTxDurationOverflowSaturates(t *testing.T) {
	// 2 GiB at 1 bit/s needs about 1.7e19 ns, more than a Duration
	// holds: the guard must saturate, not wrap negative. MaxInt32 keeps
	// the size an int on 32-bit targets too.
	if d := txDuration(math.MaxInt32, 1); d != time.Duration(math.MaxInt64) {
		t.Fatalf("overflowing txDuration = %v, want saturation", d)
	}
	if d := txDuration(0, 1000); d != 0 {
		t.Fatalf("txDuration(0) = %v, want 0", d)
	}
}

// TestDrainNeverExceedsRate is the long-run satellite property: a
// back-to-back burst through a rate-limited pipe must serialize no
// faster than rateBps, at every prefix, for rates that do not divide an
// integer number of nanoseconds per bit (the case the old float64 form
// got wrong by truncation).
func TestDrainNeverExceedsRate(t *testing.T) {
	for _, bps := range []int64{777_777, 1_000_003, 123_457, 999_999_937} {
		s := NewSim(7)
		n := NewNetwork(s, NetworkConfig{JitterStd: time.Nanosecond})
		a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast, UplinkBps: bps, QueueBytes: 1 << 30})
		n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2})
		var wireBits int64
		start := s.Now()
		probe := &departProbe{
			onForward: func(at time.Time, wire int, wait time.Duration) {
				wireBits += int64(wire) * 8
				depart := at.Add(wait)
				// bits served by `depart` must satisfy depart-start >= bits/bps,
				// i.e. bits*1e9 <= bps*(depart-start) — exact in integers.
				lhs := new(big.Int).Mul(big.NewInt(wireBits), big.NewInt(int64(time.Second)))
				rhs := new(big.Int).Mul(big.NewInt(bps), big.NewInt(int64(depart.Sub(start))))
				if lhs.Cmp(rhs) > 0 {
					t.Fatalf("bps=%d: %d bits served by +%v beats the configured rate", bps, wireBits, depart.Sub(start))
				}
			},
		}
		n.SetPipeProbe(probe)
		for i := 0; i < 400; i++ {
			a.Send(&Packet{To: Addr{Node: "b", Port: 5}, Size: 40 + (i*97)%1200})
		}
		s.Run()
	}
}

type departProbe struct {
	onForward func(at time.Time, wire int, wait time.Duration)
}

func (p *departProbe) PipeForwarded(pipe string, at time.Time, l7, wire, queuedBytes int, wait time.Duration) {
	if p.onForward != nil && pipe == "a/up" {
		p.onForward(at, wire, wait)
	}
}
func (p *departProbe) PipeDropped(pipe string, at time.Time, wire int, cause DropCause) {}

// --- allocation regression: the zero-allocation fast path ---

// TestUnconstrainedSendPathAllocFree pins the tentpole: once the event
// slab and packet pool are warm, sending a pooled packet across two
// unconstrained pipes and the core costs zero heap allocations.
func TestUnconstrainedSendPathAllocFree(t *testing.T) {
	s, n := newTestNet(3)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
	b := n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2})
	delivered := 0
	b.Bind(5, func(p *Packet) { delivered++ })
	send := func() {
		pkt := n.NewPacket()
		pkt.To = Addr{Node: "a", Port: 0}
		pkt.To.Node = "b"
		pkt.To.Port = 5
		pkt.Size = 1200
		if err := a.Send(pkt); err != nil {
			t.Fatal(err)
		}
		s.Run()
	}
	// Warm the slab chunk and the free lists.
	for i := 0; i < 512; i++ {
		send()
	}
	avg := testing.AllocsPerRun(200, send)
	if avg > 0.05 {
		t.Errorf("unconstrained send path allocates %.2f objects/op, want 0", avg)
	}
	if delivered == 0 {
		t.Fatal("no packets delivered")
	}
}

// TestConstrainedSendPathAllocFree covers the rate-limited path: the
// dequeue event is a recycled payload event, so steady-state cost is
// zero allocations there too.
func TestConstrainedSendPathAllocFree(t *testing.T) {
	s, n := newTestNet(4)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast, UplinkBps: 50_000_000})
	b := n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2, DownlinkBps: 50_000_000})
	b.Bind(5, func(p *Packet) {})
	send := func() {
		pkt := n.NewPacket()
		pkt.To = Addr{Node: "b", Port: 5}
		pkt.Size = 1200
		if err := a.Send(pkt); err != nil {
			t.Fatal(err)
		}
		s.Run()
	}
	for i := 0; i < 512; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg > 0.05 {
		t.Errorf("constrained send path allocates %.2f objects/op, want 0", avg)
	}
}

// TestPooledPacketRecycled proves the pool actually cycles: a packet
// released by delivery comes back from NewPacket zeroed.
func TestPooledPacketRecycled(t *testing.T) {
	s, n := newTestNet(5)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
	b := n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2})
	var seen *Packet
	b.Bind(5, func(p *Packet) { seen = p })
	first := n.NewPacket()
	first.To = Addr{Node: "b", Port: 5}
	first.Size = 100
	first.Payload = "payload"
	if err := a.Send(first); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if seen != first {
		t.Fatal("handler saw a different packet")
	}
	again := n.NewPacket()
	if again != first {
		t.Fatal("released packet was not recycled by NewPacket")
	}
	if again.Payload != nil || again.Size != 0 || again.To != (Addr{}) || !again.SentAt.IsZero() {
		t.Fatalf("recycled packet not zeroed: %+v", again)
	}
}

// TestLiteralPacketsNeverPooled: packets the application allocated
// itself must pass through delivery without entering the free-list.
func TestLiteralPacketsNeverPooled(t *testing.T) {
	s, n := newTestNet(6)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
	b := n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2})
	b.Bind(5, func(p *Packet) {})
	lit := &Packet{To: Addr{Node: "b", Port: 5}, Size: 100, Payload: "keep"}
	if err := a.Send(lit); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if lit.Payload != "keep" {
		t.Fatal("literal packet was cleared by the pool")
	}
	if got := n.NewPacket(); got == lit {
		t.Fatal("literal packet entered the free-list")
	}
}

// TestSendAtDefers checks the allocation-free deferred-send primitive.
func TestSendAtDefers(t *testing.T) {
	s, n := newTestNet(8)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast})
	b := n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2})
	var at time.Time
	b.Bind(5, func(p *Packet) { at = p.SentAt })
	pkt := n.NewPacket()
	pkt.To = Addr{Node: "b", Port: 5}
	pkt.Size = 10
	when := s.Now().Add(3 * time.Second)
	a.SendAt(when, pkt)
	s.Run()
	if !at.Equal(when) {
		t.Fatalf("deferred send fired at %v, want %v", at, when)
	}
	// Undeliverable deferred sends must recycle the pooled packet.
	bad := n.NewPacket()
	bad.To = Addr{Node: "nope", Port: 1}
	a.SendAt(s.Now(), bad)
	s.Run()
	if got := n.NewPacket(); got != bad {
		t.Fatal("undeliverable pooled packet was not recycled")
	}
}
