// Package probe implements the paper's active-probing pipeline: tcpping
// against discovered service endpoints. ICMP is blocked by every platform
// under test (as the paper found), so RTTs are measured with a
// SYN/SYN-ACK-style two-packet exchange against the media port.
package probe

import (
	"time"

	"github.com/vcabench/vcabench/internal/simnet"
)

// Ping is the probe request payload (the simulated SYN).
type Ping struct{ ID uint64 }

// Pong is the probe reply payload (the simulated SYN-ACK).
type Pong struct{ ID uint64 }

// ProbeSize is the L7 size of each probe packet (TCP-header-sized).
const ProbeSize = 40

// ProbePort is the local port probers bind.
const ProbePort = 40001

// Timeout is how long a probe waits for its reply.
const Timeout = 2 * time.Second

// Prober measures RTTs from a node to remote endpoints. It operates
// entirely in virtual time; results are delivered via the Run callback.
type Prober struct {
	sim      *simnet.Sim
	node     *simnet.Node
	nextID   uint64
	inflight map[uint64]*inflightProbe
}

type inflightProbe struct {
	sentAt time.Time
	timer  *simnet.Event
	// resolve reports the probe's outcome to its Run: the RTT and true
	// on a reply, false on timeout.
	resolve func(rtt time.Duration, replied bool)
}

// NewProber binds a prober to a node.
func NewProber(sim *simnet.Sim, node *simnet.Node) *Prober {
	p := &Prober{
		sim:      sim,
		node:     node,
		inflight: make(map[uint64]*inflightProbe),
	}
	node.Bind(ProbePort, p.onPacket)
	return p
}

func (p *Prober) onPacket(pkt *simnet.Packet) {
	pong, ok := pkt.Payload.(Pong)
	if !ok {
		return
	}
	fl, ok := p.inflight[pong.ID]
	if !ok {
		return // late reply after timeout
	}
	delete(p.inflight, pong.ID)
	fl.timer.Cancel()
	fl.resolve(p.sim.Now().Sub(fl.sentAt), true)
}

// Run sends count probes to target spaced by interval and invokes done
// once every probe has resolved (reply or timeout), with the RTTs of
// this Run's replies in arrival order.
func (p *Prober) Run(target simnet.Addr, count int, interval time.Duration, done func([]time.Duration)) {
	if count <= 0 {
		done(nil)
		return
	}
	var rtts []time.Duration
	remaining := count
	resolve := func(rtt time.Duration, replied bool) {
		if replied {
			rtts = append(rtts, rtt)
		}
		remaining--
		if remaining == 0 {
			done(rtts)
		}
	}
	for i := 0; i < count; i++ {
		p.sim.After(time.Duration(i)*interval, func() {
			id := p.nextID
			p.nextID++
			fl := &inflightProbe{sentAt: p.sim.Now(), resolve: resolve}
			fl.timer = p.sim.After(Timeout, func() {
				if _, ok := p.inflight[id]; ok {
					delete(p.inflight, id)
					resolve(0, false)
				}
			})
			p.inflight[id] = fl
			p.node.Send(&simnet.Packet{
				From:    simnet.Addr{Port: ProbePort},
				To:      target,
				Size:    ProbeSize,
				Payload: Ping{ID: id},
			})
		})
	}
}

// Close unbinds the prober's port.
func (p *Prober) Close() { p.node.Unbind(ProbePort) }

// Respond wires a minimal probe responder onto a node's port: any Ping
// arriving there is answered with a Pong from the same port. Platform
// endpoints install this on their media port.
func Respond(node *simnet.Node, port int, next simnet.Handler) {
	node.Bind(port, func(pkt *simnet.Packet) {
		if ping, ok := pkt.Payload.(Ping); ok {
			node.Send(&simnet.Packet{
				From:    simnet.Addr{Port: port},
				To:      pkt.From,
				Size:    ProbeSize,
				Payload: Pong{ID: ping.ID},
			})
			return
		}
		if next != nil {
			next(pkt)
		}
	})
}
