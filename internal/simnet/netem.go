package simnet

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"time"

	"github.com/vcabench/vcabench/internal/geo"
)

// Addr identifies a datagram endpoint: a node plus a port.
type Addr struct {
	Node string
	Port int
}

// String formats the address as "node:port". Built by concatenation, not
// fmt, because capture taps stringify addresses on the per-packet path.
func (a Addr) String() string { return a.Node + ":" + strconv.Itoa(a.Port) }

// Packet is a simulated UDP datagram. Size is the L7 payload length in
// bytes (the quantity the paper computes data rates from); the simulator
// adds WireOverhead per packet when modelling link occupancy. Payload
// carries an opaque application object (e.g. an RTP packet descriptor) —
// media content is represented by metadata, not by materialized bytes, so
// multi-minute sessions stay cheap to simulate.
type Packet struct {
	From    Addr
	To      Addr
	Size    int
	Payload any
	SentAt  time.Time
	// Hop bookkeeping (set by the simulator).
	ArrivedAt time.Time

	// Simulator-internal routing state. Keeping it on the packet lets
	// every hop be scheduled through package-level payload calls instead
	// of per-packet closures.
	src    *Node         // sender, for deferred SendAt
	dst    *Node         // resolved destination node
	pipe   *pipe         // pipe currently serializing the packet
	then   func(*Packet) // continuation after the current pipe stage
	pooled bool          // came from a Network free-list
}

// WireOverhead is the per-packet IPv4+UDP header cost used for link
// occupancy and shaping (20 + 8 bytes).
const WireOverhead = 28

// wireSize returns the bytes a packet occupies on the wire.
func (p *Packet) wireSize() int { return p.Size + WireOverhead }

// Handler consumes packets delivered to a bound port.
type Handler func(pkt *Packet)

// Direction tags tap callbacks.
type Direction int

const (
	DirOut Direction = iota // packet leaving the node (after app send)
	DirIn                   // packet delivered to the node
)

func (d Direction) String() string {
	if d == DirOut {
		return "out"
	}
	return "in"
}

// Tap observes packets at a node, like tcpdump on the VM.
type Tap func(dir Direction, pkt *Packet, at time.Time)

// NodeConfig configures a node's placement and access link.
type NodeConfig struct {
	Name   string
	Region geo.Region
	// Access-link bandwidth per direction in bits/s; 0 means unlimited
	// (the multi-Gbps cloud VM case).
	UplinkBps   int64
	DownlinkBps int64
	// QueueBytes bounds each direction's access queue (tail drop).
	// 0 selects DefaultQueueBytes.
	QueueBytes int
	// LossProb is an independent per-packet drop probability applied on
	// the downlink (residual random loss).
	LossProb float64
}

// DefaultQueueBytes is the access-queue depth when not configured
// (roughly 100 ms at 20 Mbps).
const DefaultQueueBytes = 256 * 1024

// PipeStats counts what happened at one access-link direction.
type PipeStats struct {
	Packets     int64
	Bytes       int64 // L7 bytes
	DropsQueue  int64
	DropsRandom int64
}

// DropCause classifies why a pipe discarded a packet.
type DropCause int

const (
	// DropQueue is a tail drop: the access queue's byte bound was full.
	DropQueue DropCause = iota
	// DropRandom is independent random loss (the netem loss discipline).
	DropRandom
)

// PipeProbe observes per-packet pipe decisions — the flight-recorder
// seam (see internal/diag). Every callback fires synchronously inside
// the deterministic event loop with sim-time instants, so an installed
// probe cannot perturb a run; a nil probe costs one branch per packet.
type PipeProbe interface {
	// PipeForwarded reports a packet accepted by the pipe: its L7 and
	// wire sizes, the queue occupancy in wire bytes after enqueue (0 on
	// the unconstrained fast path), and the queuing+serialization delay
	// until the queue releases it (0 when forwarded immediately).
	PipeForwarded(pipe string, at time.Time, l7, wire, queuedBytes int, wait time.Duration)
	// PipeDropped reports a packet the pipe discarded and why.
	PipeDropped(pipe string, at time.Time, wire int, cause DropCause)
}

// txTabSize bounds the per-pipe serialization table: every wire size a
// client can produce (MTU-fragmented RTP plus WireOverhead) is far below
// it, so the rate stage never divides on the hot path.
const txTabSize = 2048

// pipe is one direction of a node's access link: optional random loss,
// optional token-bucket shaper, FIFO with a byte-bounded queue, a
// serialization rate, and an optional fixed extra delay applied after
// the rate stage (netem-style delay).
type pipe struct {
	sim        *Sim
	net        *Network // for releasing pooled packets on drops; nil in unit tests
	name       string   // "<node>/up" or "<node>/down", for probes
	rateBps    int64
	queueLimit int
	shaper     *TokenBucket
	lossProb   float64
	extraDelay time.Duration
	rng        *randSource
	queuedB    int
	nextFree   time.Time
	txTab      []time.Duration // txTab[w] = txDuration(w, rateBps); nil when unconstrained
	stats      PipeStats
	probe      PipeProbe
}

// randSource is the minimal random interface pipes need (test seam).
type randSource struct {
	f64 func() float64
}

// lossSource is a node's random-loss stream, shared by its two pipes.
// It forks "simnet.loss.<node>" from the simulator on its first draw:
// Fork depends only on the seed and the name, so a late fork yields the
// stream an eager one would, and a node that never draws (most nodes
// are lossless) never builds one.
type lossSource struct {
	sim  *Sim
	node string
	r    *rand.Rand // nil until the first draw
}

func (l *lossSource) f64() float64 {
	if l.r == nil {
		l.r = l.sim.Fork("simnet.loss." + l.node)
	}
	return l.r.Float64()
}

// tx returns the serialization time for a wire size, from the
// precomputed table when possible.
func (p *pipe) tx(wire int) time.Duration {
	if wire >= 0 && wire < len(p.txTab) {
		return p.txTab[wire]
	}
	return txDuration(wire, p.rateBps)
}

// release returns a pooled packet the pipe dropped.
func (p *pipe) release(pkt *Packet) {
	if p.net != nil {
		p.net.release(pkt)
	}
}

func (p *pipe) deliverAfter(pkt *Packet, then func(*Packet)) {
	now := p.sim.Now()
	wire := pkt.wireSize()
	if p.lossProb > 0 && p.rng.f64() < p.lossProb {
		p.stats.DropsRandom++
		if p.probe != nil {
			p.probe.PipeDropped(p.name, now, wire, DropRandom)
		}
		p.release(pkt)
		return
	}
	// Unconstrained pipe: forward immediately.
	if p.rateBps <= 0 && p.shaper == nil && p.extraDelay <= 0 {
		p.stats.Packets++
		p.stats.Bytes += int64(pkt.Size)
		if p.probe != nil {
			p.probe.PipeForwarded(p.name, now, pkt.Size, wire, 0, 0)
		}
		then(pkt)
		return
	}
	limit := p.queueLimit
	if limit <= 0 {
		limit = DefaultQueueBytes
	}
	if p.queuedB+wire > limit {
		p.stats.DropsQueue++
		if p.probe != nil {
			p.probe.PipeDropped(p.name, now, wire, DropQueue)
		}
		p.release(pkt)
		return
	}
	departAt := now
	if p.nextFree.After(departAt) {
		departAt = p.nextFree
	}
	if p.shaper != nil {
		departAt = p.shaper.Admit(departAt, wire)
	}
	if p.rateBps > 0 {
		departAt = departAt.Add(p.tx(wire))
	}
	// The delay stage holds the packet after the rate stage without
	// occupying the serializer or the queue: a constant delay shifts
	// deliveries, it must not reduce throughput — so queue bytes are
	// released when serialization ends, not when the held packet is
	// finally delivered. Lowering the delay mid-run can reorder
	// in-flight packets across the change, as real netem does.
	p.nextFree = departAt
	p.queuedB += wire
	p.stats.Packets++
	p.stats.Bytes += int64(pkt.Size)
	if p.probe != nil {
		p.probe.PipeForwarded(p.name, now, pkt.Size, wire, p.queuedB, departAt.Sub(now))
	}
	if extra := p.extraDelay; extra > 0 {
		p.sim.At(departAt, func() { p.queuedB -= wire })
		p.sim.At(departAt.Add(extra), func() { then(pkt) })
		return
	}
	pkt.pipe = p
	pkt.then = then
	p.sim.AtCall(departAt, pipeDequeue, pkt)
}

// pipeDequeue releases the packet's queue bytes at serialization end and
// runs its continuation — the payload-call form of the old per-packet
// closure.
func pipeDequeue(arg any) {
	pkt := arg.(*Packet)
	p := pkt.pipe
	pkt.pipe = nil
	p.queuedB -= pkt.wireSize()
	then := pkt.then
	pkt.then = nil
	then(pkt)
}

// txDuration returns the serialization time of nbytes at bps in exact
// integer nanoseconds, rounded up so a draining queue can never beat the
// configured rate. (The former float64 form rounded the intermediate and
// truncated toward zero, letting long queues drain marginally faster
// than rateBps.) The 128-bit intermediate guards nbytes*8e9 against
// overflow; unrepresentable results saturate at the maximum Duration.
func txDuration(nbytes int, bps int64) time.Duration {
	if nbytes <= 0 || bps <= 0 {
		return 0
	}
	hi, lo := bits.Mul64(uint64(nbytes), 8*uint64(time.Second))
	if hi >= uint64(bps) {
		return time.Duration(math.MaxInt64)
	}
	q, r := bits.Div64(hi, lo, uint64(bps))
	if r > 0 {
		q++
	}
	if q > uint64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(q)
}

// TokenBucket is a tc-tbf style policer: tokens (bytes) refill at Rate up
// to Burst; a packet departs as soon as the bucket holds its size.
type TokenBucket struct {
	RateBps int64
	Burst   int // bytes
	tokens  float64
	last    time.Time
	primed  bool
}

// NewTokenBucket creates a bucket that starts full.
func NewTokenBucket(rateBps int64, burst int) *TokenBucket {
	if burst <= 0 {
		burst = 16 * 1024
	}
	return &TokenBucket{RateBps: rateBps, Burst: burst}
}

// Admit returns the earliest time at or after now at which a packet of the
// given byte size may depart, and debits the bucket accordingly.
//
// The arithmetic is deliberately untouched by the serialization-table
// work: admission times depend on continuous bucket state, so there is
// nothing to precompute without changing the float rounding — and the
// byte-identity invariant pins the rounding.
func (tb *TokenBucket) Admit(now time.Time, bytes int) time.Time {
	if tb.RateBps <= 0 {
		return now
	}
	if !tb.primed {
		tb.tokens = float64(tb.Burst)
		tb.last = now
		tb.primed = true
	}
	// Refill. The conversion rounds the refill before the add, so arm64
	// cannot fuse the two into one multiply-add.
	if now.After(tb.last) {
		tb.tokens += float64(now.Sub(tb.last).Seconds() * float64(tb.RateBps) / 8)
		if tb.tokens > float64(tb.Burst) {
			tb.tokens = float64(tb.Burst)
		}
		tb.last = now
	}
	need := float64(bytes)
	if tb.tokens >= need {
		tb.tokens -= need
		return now
	}
	// The deficit accrues from tb.last, not from now: after a deficit
	// admission tb.last sits in the future, and basing the wait on an
	// earlier now would move tb.last backwards and double-grant the
	// tokens of the overlap — admitted throughput could then exceed
	// rate + burst, and admission times could run backwards.
	base := now
	if tb.last.After(base) {
		base = tb.last
	}
	wait := (need - tb.tokens) / (float64(tb.RateBps) / 8)
	at := base.Add(time.Duration(wait * float64(time.Second)))
	tb.tokens = 0
	tb.last = at
	return at
}

// Node is a host attached to the network.
type Node struct {
	net      *Network
	cfg      NodeConfig
	idx      int        // dense index in Network.byIndex
	paths    []pairPath // per-destination path state, by destination idx
	up, down *pipe
	loss     *lossSource // the random-loss stream both pipes draw from
	handlers map[int]Handler
	taps     []Tap
	sent     PipeStats // convenience aggregate (app-level)
	// Prebound pipe continuations, built once at AddNode so the
	// per-packet path never allocates a closure.
	upThen   func(*Packet) // after uplink: cross the core
	downThen func(*Packet) // after downlink: deliver to taps + handler
}

// pairPath is one (src, dst) entry of the network's path table, held in
// the source node's paths row.
type pairPath struct {
	delay time.Duration // path.OneWay(src, dst): a pure function of the regions
	// lastArr is the pair's last scheduled arrival (clock key), -1
	// before the first packet. Every arrival is >= 0, so the sentinel
	// never clamps.
	lastArr int64
}

// Name returns the node's name.
func (n *Node) Name() string { return n.cfg.Name }

// Region returns the node's placement.
func (n *Node) Region() geo.Region { return n.cfg.Region }

// Bind registers a handler for a local port. Binding a bound port replaces
// the previous handler (sockets are owned by one client process at a time).
func (n *Node) Bind(port int, h Handler) { n.handlers[port] = h }

// Unbind removes the handler for port.
func (n *Node) Unbind(port int) { delete(n.handlers, port) }

// Tap adds a packet observer (tcpdump-style). Taps see outgoing packets at
// send time and incoming packets at delivery time.
func (n *Node) Tap(t Tap) { n.taps = append(n.taps, t) }

// SetDownlinkShaper installs (or removes, with nil) a token-bucket shaper
// on the node's ingress, mirroring the paper's tc/ifb setup for Fig 17/18.
func (n *Node) SetDownlinkShaper(tb *TokenBucket) { n.down.shaper = tb }

// SetDownlinkLoss sets the node's ingress random-loss probability,
// mirroring a netem loss discipline on the last mile. It replaces any
// probability configured at AddNode time; 0 disables random loss.
func (n *Node) SetDownlinkLoss(p float64) { n.down.lossProb = p }

// LinkState is one complete, atomically-applied downlink configuration
// — the reconfigurable subset of NodeConfig that trace-driven
// impairment schedules sweep over simulated time. Fields are absolute
// state, not deltas: applying a LinkState fully determines the
// downlink's shaping, loss and delay from that instant on.
type LinkState struct {
	// CapBps is a token-bucket shaping rate in bits/s; 0 removes the
	// shaper (unshaped). A fresh bucket is installed on every apply, so
	// reapplying the same rate restarts the burst allowance.
	CapBps int64
	// Burst is the bucket depth in bytes; <= 0 selects the
	// NewTokenBucket default.
	Burst int
	// LossProb is the independent per-packet drop probability.
	LossProb float64
	// ExtraDelay is a fixed per-packet delivery delay after the rate
	// stage.
	ExtraDelay time.Duration
}

// SetDownlinkState applies st to the node's ingress in one call — the
// reconfiguration primitive behind trace-driven impairment schedules
// (see internal/trace).
func (n *Node) SetDownlinkState(st LinkState) {
	if st.CapBps > 0 {
		n.down.shaper = NewTokenBucket(st.CapBps, st.Burst)
	} else {
		n.down.shaper = nil
	}
	n.down.lossProb = st.LossProb
	n.down.extraDelay = st.ExtraDelay
}

// DownlinkAt schedules SetDownlinkState(st) at absolute virtual time t
// — the scheduled-reconfiguration hook trace players drive. Cancel the
// returned event to drop a pending reconfiguration.
func (n *Node) DownlinkAt(t time.Time, st LinkState) *Event {
	return n.net.sim.At(t, func() { n.SetDownlinkState(st) })
}

// UplinkStats and DownlinkStats expose access-link counters.
func (n *Node) UplinkStats() PipeStats   { return n.up.stats }
func (n *Node) DownlinkStats() PipeStats { return n.down.stats }

// Send transmits a datagram from this node. The From address's node field
// is forced to this node; the port is the caller's source port.
func (n *Node) Send(pkt *Packet) error {
	pkt.From.Node = n.cfg.Name
	dst, ok := n.net.nodes[pkt.To.Node]
	if !ok {
		return fmt.Errorf("simnet: send to unknown node %q", pkt.To.Node)
	}
	pkt.dst = dst
	pkt.SentAt = n.net.sim.Now()
	for _, t := range n.taps {
		t(DirOut, pkt, pkt.SentAt)
	}
	n.up.deliverAfter(pkt, n.upThen)
	return nil
}

// SendAt schedules Send(pkt) at virtual time t, without allocating a
// closure or an event: the deferred-forward form platform relays use on
// their per-packet fan-out path. Undeliverable pooled packets are
// recycled.
func (n *Node) SendAt(t time.Time, pkt *Packet) {
	pkt.src = n
	n.net.sim.AtCall(t, sendDeferred, pkt)
}

// sendDeferred is the payload call behind SendAt.
func sendDeferred(arg any) {
	pkt := arg.(*Packet)
	src := pkt.src
	pkt.src = nil
	if src.Send(pkt) != nil {
		src.net.release(pkt)
	}
}

// Network couples a Sim with a set of nodes and a latency model.
type Network struct {
	sim       *Sim
	path      geo.PathModel
	jitterStd time.Duration
	distLoss  float64
	nodes     map[string]*Node
	byIndex   []*Node // nodes in AddNode order; Node.idx indexes it
	jrng      *randSourceN
	lrng      *randSource
	distDrops int64
	pipeProbe PipeProbe
}

type randSourceN struct {
	norm func() float64
}

// NetworkConfig tunes the core latency model.
type NetworkConfig struct {
	// Path converts geography into propagation delay. Zero value selects
	// geo.DefaultPathModel.
	Path geo.PathModel
	// JitterStd is the standard deviation of one-way core jitter
	// (half-normal, always >= 0). Zero selects 300µs.
	JitterStd time.Duration
	// DistLossPer100ms is the per-packet loss probability accrued per
	// 100 ms of one-way propagation: long-haul paths are not pristine,
	// and this is what makes a trans-Atlantic relay detour cost quality,
	// not just latency. Zero disables distance loss.
	DistLossPer100ms float64
}

// NewNetwork creates an empty network on sim.
func NewNetwork(sim *Sim, cfg NetworkConfig) *Network {
	if cfg.Path.FiberKmPerMs == 0 {
		cfg.Path = geo.DefaultPathModel
	}
	if cfg.JitterStd == 0 {
		cfg.JitterStd = 300 * time.Microsecond
	}
	jr := sim.Fork("simnet.core-jitter")
	lr := sim.Fork("simnet.dist-loss")
	return &Network{
		sim:       sim,
		path:      cfg.Path,
		jitterStd: cfg.JitterStd,
		distLoss:  cfg.DistLossPer100ms,
		nodes:     make(map[string]*Node),
		jrng:      &randSourceN{norm: jr.NormFloat64},
		lrng:      &randSource{f64: lr.Float64},
	}
}

// NewPacket returns a zeroed packet from the simulator's packet
// free-list. The list belongs to the Sim — and so to one testbed on one
// goroutine — which keeps reuse deterministic and race-free without
// locks; a Sim on a Store takes it from the store (see Store). Pooled
// packets are recycled by the simulator once fully delivered (after the
// destination handler returns) or dropped, so senders must treat them as
// consumed by Send/SendAt, and handlers must not retain them past the
// delivery callback. Application code that keeps packet descriptors
// should allocate Packet literals instead — the simulator never recycles
// packets it did not pool.
func (n *Network) NewPacket() *Packet {
	s := n.sim
	if k := len(s.pkts); k > 0 {
		p := s.pkts[k-1]
		s.pkts = s.pkts[:k-1]
		*p = Packet{pooled: true}
		return p
	}
	return &Packet{pooled: true}
}

// release recycles a pooled packet; non-pooled packets pass through
// untouched. Clearing the struct drops payload references (GC) and the
// pooled flag, making a double release a no-op.
func (n *Network) release(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	*p = Packet{}
	n.sim.pkts = append(n.sim.pkts, p)
}

// DistanceDrops reports packets lost to distance-dependent path loss.
func (n *Network) DistanceDrops() int64 { return n.distDrops }

// SetPipeProbe installs (or removes, with nil) the per-packet observer
// on every access-link pipe — existing nodes and any added later. One
// probe covers the whole network; pipes identify themselves by name
// ("<node>/up", "<node>/down").
func (n *Network) SetPipeProbe(p PipeProbe) {
	n.pipeProbe = p
	for _, node := range n.nodes {
		node.up.probe = p
		node.down.probe = p
	}
}

// Sim returns the underlying simulator.
func (n *Network) Sim() *Sim { return n.sim }

// PathModel returns the latency model in use.
func (n *Network) PathModel() geo.PathModel { return n.path }

// AddNode creates and attaches a node. Adding a duplicate name is a
// programming error and panics.
func (n *Network) AddNode(cfg NodeConfig) *Node {
	if cfg.Name == "" {
		panic("simnet: node with empty name")
	}
	if _, dup := n.nodes[cfg.Name]; dup {
		panic("simnet: duplicate node " + cfg.Name)
	}
	node := &Node{
		net:      n,
		cfg:      cfg,
		handlers: make(map[int]Handler),
		loss:     &lossSource{sim: n.sim, node: cfg.Name},
	}
	lrng := &randSource{f64: node.loss.f64}
	node.up = &pipe{
		sim: n.sim, net: n,
		name:    cfg.Name + "/up",
		rateBps: cfg.UplinkBps, queueLimit: cfg.QueueBytes,
		txTab: txTable(cfg.UplinkBps),
		rng:   lrng,
		probe: n.pipeProbe,
	}
	node.down = &pipe{
		sim: n.sim, net: n,
		name:    cfg.Name + "/down",
		rateBps: cfg.DownlinkBps, queueLimit: cfg.QueueBytes,
		txTab:    txTable(cfg.DownlinkBps),
		lossProb: cfg.LossProb,
		rng:      lrng,
		probe:    n.pipeProbe,
	}
	node.upThen = func(p *Packet) { n.propagate(node, p.dst, p) }
	node.downThen = func(p *Packet) {
		p.ArrivedAt = n.sim.Now()
		for _, t := range node.taps {
			t(DirIn, p, p.ArrivedAt)
		}
		if h, ok := node.handlers[p.To.Port]; ok {
			h(p)
		}
		n.release(p)
	}
	n.nodes[cfg.Name] = node
	n.addPaths(node)
	return node
}

// addPaths gives node the next dense index and grows the path table by
// its row and column, so the per-packet path needs no lookup by name.
func (n *Network) addPaths(node *Node) {
	node.idx = len(n.byIndex)
	n.byIndex = append(n.byIndex, node)
	node.paths = make([]pairPath, len(n.byIndex))
	for _, other := range n.byIndex {
		node.paths[other.idx] = n.pathBetween(node, other)
		if other != node {
			other.paths = append(other.paths, n.pathBetween(other, node))
		}
	}
}

func (n *Network) pathBetween(src, dst *Node) pairPath {
	return pairPath{delay: n.path.OneWay(src.cfg.Region, dst.cfg.Region), lastArr: -1}
}

// txTable precomputes txDuration for every wire size below txTabSize;
// nil for unconstrained links.
func txTable(bps int64) []time.Duration {
	if bps <= 0 {
		return nil
	}
	tab := make([]time.Duration, txTabSize)
	for w := 1; w < txTabSize; w++ {
		tab[w] = txDuration(w, bps)
	}
	return tab
}

// Node returns a node by name, or nil.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// propagate carries a packet across the core from src to dst.
func (n *Network) propagate(src, dst *Node, pkt *Packet) {
	pp := &src.paths[dst.idx]
	d := pp.delay
	if n.distLoss > 0 {
		p := n.distLoss * float64(d) / float64(100*time.Millisecond)
		if n.lrng.f64() < p {
			n.distDrops++
			n.release(pkt)
			return
		}
	}
	if n.jitterStd > 0 {
		j := time.Duration(math.Abs(n.jrng.norm()) * float64(n.jitterStd))
		d += j
	}
	arr := later(n.sim.now, d)
	// Preserve FIFO ordering per (src,dst) node pair: jitter must not
	// reorder a flow (real reordering is rare and would only add noise).
	if arr <= pp.lastArr {
		arr = pp.lastArr + 1
	}
	pp.lastArr = arr
	pkt.dst = dst
	n.sim.atCall(arr, deliverDown, pkt)
}

// deliverDown hands an arriving packet to the destination's downlink
// pipe — the payload-call form of the old per-packet closure pair.
func deliverDown(arg any) {
	pkt := arg.(*Packet)
	dst := pkt.dst
	pkt.dst = nil
	dst.down.deliverAfter(pkt, dst.downThen)
}
