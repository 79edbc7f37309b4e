package platform

import (
	"time"

	"github.com/vcabench/vcabench/internal/simnet"
)

// envelope carries media between two Meet endpoints, addressed to its
// final client. Envelopes are pooled on the Platform: one is allocated
// per relayed packet on the Meet fan-out path, consumed exactly once at
// the second hop, and recycled there.
type envelope struct {
	final simnet.Addr
	inner any
}

// JoinOpts configures one participant's attachment.
type JoinOpts struct {
	// Port is the client's local media port (where relayed media is
	// delivered). Required.
	Port int
	// OnPacket receives media delivered to this participant.
	OnPacket func(*simnet.Packet)
}

// Attachment is one participant's handle on a session.
type Attachment struct {
	sess     *Session
	node     *simnet.Node
	port     int
	sendTo   simnet.Addr
	ep       *Endpoint // per-client endpoint (Meet) or session relay
	onPacket func(*simnet.Packet)
	onTarget []func(float64)
	lastLoss float64
	lastGood float64
	reported bool
	isHost   bool
}

// Node returns the participant's node.
func (a *Attachment) Node() *simnet.Node { return a.node }

// Session returns the session this attachment belongs to.
func (a *Attachment) Session() *Session { return a.sess }

// Target returns the session's current video bitrate target.
func (a *Attachment) Target() float64 { return a.sess.targetBps }

// Endpoint returns the service endpoint this participant talks to
// (nil until Start, or for the remote peer in P2P mode).
func (a *Attachment) Endpoint() *Endpoint { return a.ep }

// Send transmits one media datagram of the given L7 size into the
// session. payload is opaque application metadata (an *rtp.Packet).
func (a *Attachment) Send(l7 int, payload any) {
	if a.sendTo.Node == "" {
		panic("platform: Send before Session.Start")
	}
	pkt := a.sess.p.net.NewPacket()
	pkt.From = simnet.Addr{Port: a.port}
	pkt.To = a.sendTo
	pkt.Size = l7
	pkt.Payload = payload
	a.node.Send(pkt)
}

// OnTarget registers a callback fired when the platform changes the
// session's video bitrate target. It fires immediately with the current
// target once the session has started.
func (a *Attachment) OnTarget(f func(bps float64)) {
	a.onTarget = append(a.onTarget, f)
	if a.sess.started {
		f(a.sess.targetBps)
	}
}

// ReportReceiverStats feeds one feedback interval's measurements from
// this participant back to the platform: loss is the fraction of media
// lost, goodput the received media rate in bits/s.
func (a *Attachment) ReportReceiverStats(loss, goodput float64) {
	a.lastLoss = loss
	a.lastGood = goodput
	a.reported = true
}

// Session is one meeting.
type Session struct {
	p          *Platform
	id         int
	host       *Attachment
	parts      []*Attachment
	endpoints  []*Endpoint
	p2p        bool
	started    bool
	targetBps  float64
	targetCeil float64
	rateEv     *simnet.Event
	// fwdClock enforces FIFO forwarding per destination: processing
	// jitter delays packets but never reorders a flow (as in a real
	// SFU's per-connection send queue).
	fwdClock map[*Attachment]time.Time
}

// CreateSession opens a meeting hosted by hostNode. The host must Join
// like any other participant before Start.
func (p *Platform) CreateSession() *Session {
	p.sessions++
	return &Session{p: p, id: p.sessions, fwdClock: make(map[*Attachment]time.Time)}
}

// Join attaches a participant. The first participant to join is the
// meeting host. Join binds opts.Port on the node.
func (s *Session) Join(node *simnet.Node, opts JoinOpts) *Attachment {
	if s.started {
		panic("platform: Join after Start")
	}
	if opts.Port == 0 {
		panic("platform: JoinOpts.Port required")
	}
	a := &Attachment{
		sess: s, node: node, port: opts.Port,
		onPacket: opts.OnPacket,
		isHost:   len(s.parts) == 0,
	}
	if a.isHost {
		s.host = a
	}
	node.Bind(opts.Port, func(pkt *simnet.Packet) {
		if a.onPacket != nil {
			a.onPacket(pkt)
		}
	})
	s.parts = append(s.parts, a)
	return a
}

// P2P reports whether the session runs peer-to-peer.
func (s *Session) P2P() bool { return s.p2p }

// Endpoints returns the service endpoints provisioned for this session.
func (s *Session) Endpoints() []*Endpoint { return s.endpoints }

// TargetBps returns the current video bitrate target.
func (s *Session) TargetBps() float64 { return s.targetBps }

// AudioBps returns the platform's audio rate.
func (s *Session) AudioBps() float64 { return s.p.cfg.AudioBps }

// Start wires the media topology and begins rate control. All
// participants must have joined.
func (s *Session) Start() {
	if s.started {
		panic("platform: double Start")
	}
	if len(s.parts) < 2 {
		panic("platform: session needs at least two participants")
	}
	s.started = true
	cfg := s.p.cfg
	s.p2p = cfg.P2PWhenPair && len(s.parts) == 2

	switch {
	case s.p2p:
		// Direct streaming on ephemeral ports: no service endpoint.
		a, b := s.parts[0], s.parts[1]
		a.sendTo = simnet.Addr{Node: b.node.Name(), Port: b.port}
		b.sendTo = simnet.Addr{Node: a.node.Name(), Port: a.port}

	case cfg.PerClientEndpoints:
		// Meet: one endpoint per client; endpoints relay between each
		// other.
		for _, a := range s.parts {
			ep := s.p.clientEndpoint(a.node)
			a.ep = ep
			a.sendTo = ep.Addr(cfg.MediaPort)
			s.addEndpoint(ep)
		}
		for _, ep := range s.endpoints {
			s.wireEndpoint(ep)
		}

	default:
		// Zoom/Webex: a single relay for the whole session.
		ep := s.p.sessionEndpoint(s.host.node.Region())
		for _, a := range s.parts {
			a.ep = ep
			a.sendTo = ep.Addr(cfg.MediaPort)
		}
		s.addEndpoint(ep)
		s.wireEndpoint(ep)
	}

	s.targetBps = cfg.Policy.InitialTarget(len(s.parts), s.p2p, s.p.rng)
	// Recovery probing never exceeds the session type's own target.
	s.targetCeil = s.targetBps * 1.05
	if s.p.rateProbe != nil {
		s.p.rateProbe(s.id, s.targetBps)
	}
	for _, a := range s.parts {
		for _, f := range a.onTarget {
			f(s.targetBps)
		}
	}
	// Rate-control feedback loop at 1 Hz.
	s.rateEv = s.p.sim.Every(time.Second, s.rateTick)
}

func (s *Session) addEndpoint(ep *Endpoint) {
	for _, e := range s.endpoints {
		if e == ep {
			return
		}
	}
	s.endpoints = append(s.endpoints, ep)
}

// wireEndpoint installs the forwarding handler (idempotent per session;
// rebinding replaces any previous session's handler, matching how a media
// server reassigns capacity).
func (s *Session) wireEndpoint(ep *Endpoint) {
	port := s.p.cfg.MediaPort
	net := s.p.net
	s.p.respondToProbes(ep, func(pkt *simnet.Packet) {
		// Outbound packets are built here, synchronously — the inbound
		// pkt may be recycled the moment this handler returns — and
		// handed to the simulator as deferred sends. SendAt schedules
		// exactly one event per forward at the same (time, seq) a
		// closure-based sim.At would have, so event and RNG order are
		// unchanged; only the per-packet closure and Packet-literal
		// allocations are gone.
		if env, ok := pkt.Payload.(*envelope); ok {
			// Second hop (Meet): deliver to the final client.
			dst := s.attachmentFor(env.final.Node)
			out := net.NewPacket()
			out.From = simnet.Addr{Port: port}
			out.To = env.final
			out.Size = pkt.Size
			out.Payload = env.inner
			s.p.releaseEnvelope(env)
			ep.Node.SendAt(s.forwardAt(dst), out)
			return
		}
		// Media from one of this endpoint's clients: fan out.
		src := pkt.From
		for _, dst := range s.parts {
			if dst.node.Name() == src.Node {
				continue
			}
			final := simnet.Addr{Node: dst.node.Name(), Port: dst.port}
			out := net.NewPacket()
			out.From = simnet.Addr{Port: port}
			out.Size = pkt.Size
			if dst.ep != nil && dst.ep != ep {
				// Relay across PoPs to the receiver's endpoint.
				out.To = dst.ep.Addr(port)
				out.Payload = s.p.newEnvelope(final, pkt.Payload)
			} else {
				out.To = final
				out.Payload = pkt.Payload
			}
			ep.Node.SendAt(s.forwardAt(dst), out)
		}
	})
}

// forwardAt samples this hop's processing delay and clamps it so that
// forwarding toward one destination never reorders.
func (s *Session) forwardAt(dst *Attachment) time.Time {
	at := s.p.sim.Now().Add(s.p.procDelay())
	if dst != nil {
		if last, ok := s.fwdClock[dst]; ok && !at.After(last) {
			at = last.Add(time.Microsecond)
		}
		s.fwdClock[dst] = at
	}
	return at
}

// attachmentFor finds the participant on the given node, or nil.
func (s *Session) attachmentFor(node string) *Attachment {
	for _, a := range s.parts {
		if a.node.Name() == node {
			return a
		}
	}
	return nil
}

// rateTick aggregates receiver feedback and lets the policy adjust the
// sender target.
func (s *Session) rateTick() {
	var worstLoss, minGood float64
	seen := false
	for _, a := range s.parts {
		if !a.reported {
			continue
		}
		if !seen || a.lastLoss > worstLoss {
			worstLoss = a.lastLoss
		}
		if !seen || a.lastGood < minGood {
			minGood = a.lastGood
		}
		seen = true
	}
	if !seen {
		return
	}
	next := s.p.cfg.Policy.Adjust(s.targetBps, worstLoss, minGood)
	if next > s.targetCeil {
		next = s.targetCeil
	}
	if next == s.targetBps {
		return
	}
	s.targetBps = next
	if s.p.rateProbe != nil {
		s.p.rateProbe(s.id, next)
	}
	for _, a := range s.parts {
		for _, f := range a.onTarget {
			f(next)
		}
	}
}

// End stops rate control and releases the session's endpoint handlers.
// Participant ports remain bound (clients own them).
func (s *Session) End() {
	if s.rateEv != nil {
		s.rateEv.Cancel()
	}
	for _, ep := range s.endpoints {
		ep.Node.Unbind(s.p.cfg.MediaPort)
	}
}
