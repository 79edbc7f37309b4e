// Package client implements the fully emulated videoconferencing client
// of the paper's Fig 1: a media feeder replaying deterministic audiovisual
// content through the codec (the loopback-device substitute), a client
// monitor capturing all traffic tcpdump-style and driving active probing,
// a client controller replaying the scripted UI workflow, and a desktop
// recorder capturing what the viewer sees for offline QoE scoring.
package client

import (
	"time"

	"github.com/vcabench/vcabench/internal/capture"
	"github.com/vcabench/vcabench/internal/rtp"
	"github.com/vcabench/vcabench/internal/simnet"
)

// Resolver maps node names to trace IPs. Platform endpoints resolve to
// their service ranges; everything else defaults to capture.IPForName.
type Resolver func(node string) (capture.IPv4, bool)

// Monitor is the client's traffic-capture component.
type Monitor struct {
	trace   *capture.Trace
	local   capture.IPv4
	resolve Resolver
	// ips memoizes name → IP resolution. Safe to cache on first use: a
	// name reaches the tap only via a packet, which can only exist after
	// the named node (and, for platform endpoints, its service-range
	// registration) was provisioned — so the answer for a given name
	// never changes afterwards.
	ips map[string]capture.IPv4
}

// NewMonitor attaches a capture tap to the node. resolve may be nil.
// The trace's storage comes from store until Release; a nil store
// allocates it.
func NewMonitor(node *simnet.Node, resolve Resolver, store *capture.Store) *Monitor {
	m := &Monitor{
		trace:   capture.NewTraceOn(node.Name(), store),
		local:   capture.IPForName(node.Name()),
		resolve: resolve,
		ips:     make(map[string]capture.IPv4),
	}
	node.Tap(func(dir simnet.Direction, pkt *simnet.Packet, at time.Time) {
		m.record(dir, pkt, at)
	})
	return m
}

func (m *Monitor) ipOf(node string) capture.IPv4 {
	if ip, ok := m.ips[node]; ok {
		return ip
	}
	ip := capture.IPForName(node)
	if m.resolve != nil {
		if rip, ok := m.resolve(node); ok {
			ip = rip
		}
	}
	m.ips[node] = ip
	return ip
}

func (m *Monitor) record(dir simnet.Direction, pkt *simnet.Packet, at time.Time) {
	rec := capture.Record{
		UnixNano: at.UnixNano(),
		Src:      capture.Endpoint{IP: m.ipOf(pkt.From.Node), Port: uint16(pkt.From.Port)},
		Dst:      capture.Endpoint{IP: m.ipOf(pkt.To.Node), Port: uint16(pkt.To.Port)},
		Len:      pkt.Size,
	}
	if dir == simnet.DirOut {
		rec.Dir = capture.Out
	} else {
		rec.Dir = capture.In
	}
	if rp, ok := pkt.Payload.(*rtp.Packet); ok {
		rec.HasRTP, rec.RTP = true, rp.Info
	}
	m.trace.Add(rec)
}

// Trace returns the capture so far.
func (m *Monitor) Trace() *capture.Trace { return m.trace }

// Release ends the capture's storage lifetime (capture.Trace.Release):
// the trace's chunks go back to the monitor's store and the trace is
// left empty, so every view of it taken before must be dead. A packet
// captured after Release lands on new storage, never on storage given
// back.
func (m *Monitor) Release() { m.trace.Release() }
