// Package platform models the three videoconferencing services the paper
// measured — Zoom, Webex and Google Meet — as media infrastructures on
// top of the simulated network. The models encode the *topology and
// policies the paper inferred from black-box measurement* (Fig 3, §4.2),
// not its measured outputs: lag, RTT, rate and QoE numbers emerge from
// running sessions through these infrastructures.
//
// Architecture per platform:
//
//   - Zoom: one service endpoint per session (UDP/8801), provisioned in
//     the US near the meeting host; non-US sessions are load-balanced
//     across three US PoPs (the stepwise RTT bands of Figs 10a/11a);
//     endpoints change every session; exactly two participants stream
//     peer-to-peer on ephemeral ports.
//   - Webex: one service endpoint per session (UDP/9000), always in
//     US-East on the free tier (the artificial detour of Fig 5b/9b);
//     endpoints almost always change per session. The paid tier
//     (the webex@paid-tier variant) provisions geographically close
//     endpoints.
//   - Meet: one endpoint per *client* (UDP/19305), chosen from a global
//     footprint including Europe; clients stick to the same endpoint
//     across sessions; media crosses sender-endpoint → receiver-endpoint.
package platform

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/vcabench/vcabench/internal/capture"
	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/probe"
	"github.com/vcabench/vcabench/internal/simnet"
)

// Kind names a platform under test.
type Kind string

const (
	Zoom  Kind = "zoom"
	Webex Kind = "webex"
	Meet  Kind = "meet"
)

// Kinds lists all platforms in the paper's presentation order.
var Kinds = []Kind{Zoom, Webex, Meet}

// Variants are counterfactual profiles of the calibrated platforms, each
// flipping one inferred infrastructure property (the ablate-*
// experiments). A variant is named "<base>@<change>" and runs anywhere a
// Kind does; its Config keeps the base's Kind, so RNG streams, node
// names, ports, IP ranges and rate policy match the base platform.
const (
	WebexPaidTier   Kind = "webex@paid-tier"   // geo-local relays (§6 paid subscriptions)
	MeetSingleRelay Kind = "meet@single-relay" // one US relay instead of per-client endpoints
	ZoomNoLB        Kind = "zoom@no-lb"        // nearest US PoP, no regional load balancing
	ZoomRelay       Kind = "zoom@relay"        // two-party calls relayed, never P2P
)

// variants registers each variant's edit to its base's calibrated
// profile.
var variants = map[Kind]func(*Config){
	WebexPaidTier: func(c *Config) {
		c.PaidTier = true
		c.USPoPs = []geo.Region{geo.PoPUSEast, geo.PoPUSCentral, geo.PoPUSWest}
		c.EUPoPs = []geo.Region{geo.PoPEUWest, geo.PoPEUCentral, geo.PoPEUNorth}
	},
	MeetSingleRelay: func(c *Config) {
		c.PerClientEndpoints = false
		c.EUPoPs = nil
	},
	ZoomNoLB:  func(c *Config) { c.RegionalLB = false },
	ZoomRelay: func(c *Config) { c.P2PWhenPair = false },
}

// Base returns the calibrated platform k derives from: the part before
// "@" for a variant, k itself otherwise.
func (k Kind) Base() Kind {
	base, _, _ := strings.Cut(string(k), "@")
	return Kind(base)
}

// Known reports whether k names a calibrated platform or a registered
// variant.
func (k Kind) Known() bool {
	_, variant := variants[k]
	return variant || k == Zoom || k == Webex || k == Meet
}

// Config is a platform's behavioral profile. The defaults for each Kind
// are derived from the paper's findings.
type Config struct {
	Kind      Kind
	MediaPort int
	// AudioBps is the platform's audio stream rate (paper §4.4: Zoom
	// 90 kbps, Webex 45 kbps, Meet 40 kbps).
	AudioBps float64
	// PerClientEndpoints selects the Meet-style topology.
	PerClientEndpoints bool
	// P2PWhenPair enables Zoom's two-party peer-to-peer mode.
	P2PWhenPair bool
	// RegionalLB load-balances non-US sessions across all US PoPs
	// (Zoom's stepwise RTT bands).
	RegionalLB bool
	// EndpointReuseProb is the chance a new session reuses the previous
	// endpoint (Webex's 19.5-of-20 distinct endpoints).
	EndpointReuseProb float64
	// StickyFlipProb is the chance a Meet client is served by its
	// secondary endpoint in a given session (1.8 endpoints/20 sessions).
	StickyFlipProb float64
	// USPoPs / EUPoPs is the media footprint.
	USPoPs []geo.Region
	EUPoPs []geo.Region
	// ProcBase/ProcJitterMean model per-packet forwarding delay at an
	// endpoint (jitter is exponential). Meet's larger values reproduce
	// its load-variation lag penalty (§4.2.1).
	ProcBase       time.Duration
	ProcJitterMean time.Duration
	// IPBase is the first two octets of the platform's endpoint range.
	IPBase [2]byte
	// Policy computes video bitrate targets; see policy.go.
	Policy RatePolicy
	// PaidTier provisions geographically-nearest endpoints (paper §6:
	// Webex paid subscriptions stream from close-by servers).
	PaidTier bool
}

// DefaultConfig returns the profile a platform or variant name stands
// for; an unknown name panics.
func DefaultConfig(k Kind) Config {
	if edit, ok := variants[k]; ok {
		cfg := DefaultConfig(k.Base())
		edit(&cfg)
		return cfg
	}
	usPoPs := []geo.Region{geo.PoPUSEast, geo.PoPUSCentral, geo.PoPUSWest}
	euPoPs := []geo.Region{geo.PoPEUWest, geo.PoPEUCentral, geo.PoPEUNorth}
	switch k {
	case Zoom:
		return Config{
			Kind: Zoom, MediaPort: 8801, AudioBps: 90_000,
			P2PWhenPair: true, RegionalLB: true,
			USPoPs:   usPoPs, // US-only media footprint on the free tier
			ProcBase: 800 * time.Microsecond, ProcJitterMean: 1200 * time.Microsecond,
			IPBase: [2]byte{170, 114},
			Policy: NewZoomPolicy(),
		}
	case Webex:
		return Config{
			Kind: Webex, MediaPort: 9000, AudioBps: 45_000,
			EndpointReuseProb: 0.025,
			USPoPs:            []geo.Region{geo.PoPUSEast}, // free tier: US-East only
			ProcBase:          700 * time.Microsecond, ProcJitterMean: 900 * time.Microsecond,
			IPBase: [2]byte{66, 114},
			Policy: NewWebexPolicy(),
		}
	case Meet:
		return Config{
			Kind: Meet, MediaPort: 19305, AudioBps: 40_000,
			PerClientEndpoints: true,
			StickyFlipProb:     0.1,
			USPoPs:             usPoPs, EUPoPs: euPoPs,
			ProcBase: 4 * time.Millisecond, ProcJitterMean: 11 * time.Millisecond,
			IPBase: [2]byte{142, 250},
			Policy: NewMeetPolicy(),
		}
	}
	panic(fmt.Sprintf("platform: unknown kind %q", k))
}

// Endpoint is one provisioned media server instance.
type Endpoint struct {
	Name   string
	Node   *simnet.Node
	IP     capture.IPv4
	Region geo.Region
}

// Addr returns the endpoint's media address.
func (e *Endpoint) Addr(port int) simnet.Addr { return simnet.Addr{Node: e.Name, Port: port} }

// Platform instantiates one service on a network.
type Platform struct {
	cfg      Config
	net      *simnet.Network
	sim      *simnet.Sim
	rng      *rand.Rand
	epSeq    int
	sessions int
	lastEP   *Endpoint
	// Meet stickiness: primary/secondary endpoint per client node.
	sticky map[string][2]*Endpoint
	ips    map[string]capture.IPv4
	// rateProbe, when set, observes every rate-control target change —
	// the flight-recorder seam (see internal/diag). It fires in sim
	// time, after the target is set but before OnTarget callbacks.
	rateProbe func(session int, bps float64)
	// freeEnvs recycles Meet relay envelopes: each is consumed exactly
	// once at the second forwarding hop, so the free-list stays small
	// (bounded by envelopes in flight) and reuse is single-goroutine.
	freeEnvs []*envelope
}

// newEnvelope takes a relay envelope from the free-list.
func (p *Platform) newEnvelope(final simnet.Addr, inner any) *envelope {
	if k := len(p.freeEnvs); k > 0 {
		env := p.freeEnvs[k-1]
		p.freeEnvs = p.freeEnvs[:k-1]
		env.final, env.inner = final, inner
		return env
	}
	return &envelope{final: final, inner: inner}
}

// releaseEnvelope recycles a consumed envelope, dropping its payload
// reference.
func (p *Platform) releaseEnvelope(env *envelope) {
	env.inner = nil
	p.freeEnvs = append(p.freeEnvs, env)
}

// SetRateProbe installs (or removes, with nil) the rate-target
// observer, covering every session the platform runs.
func (p *Platform) SetRateProbe(f func(session int, bps float64)) { p.rateProbe = f }

// New instantiates a platform or variant with its DefaultConfig profile.
func New(k Kind, net *simnet.Network) *Platform {
	cfg := DefaultConfig(k)
	return &Platform{
		cfg:    cfg,
		net:    net,
		sim:    net.Sim(),
		rng:    net.Sim().Fork("platform." + string(cfg.Kind)),
		sticky: make(map[string][2]*Endpoint),
		ips:    make(map[string]capture.IPv4),
	}
}

// Kind returns the platform's identity.
func (p *Platform) Kind() Kind { return p.cfg.Kind }

// MediaPort returns the platform's well-known media port.
func (p *Platform) MediaPort() int { return p.cfg.MediaPort }

// Resolve maps a node name this platform created to its service IP.
func (p *Platform) Resolve(node string) (capture.IPv4, bool) {
	ip, ok := p.ips[node]
	return ip, ok
}

// footprint returns the PoPs available given the config.
func (p *Platform) footprint() []geo.Region {
	out := append([]geo.Region{}, p.cfg.USPoPs...)
	out = append(out, p.cfg.EUPoPs...)
	return out
}

// newEndpoint provisions a fresh media server node at the given PoP.
func (p *Platform) newEndpoint(at geo.Region) *Endpoint {
	p.epSeq++
	name := fmt.Sprintf("%s-ep-%d", p.cfg.Kind, p.epSeq)
	node := p.net.AddNode(simnet.NodeConfig{Name: name, Region: at})
	ip := capture.IPv4{p.cfg.IPBase[0], p.cfg.IPBase[1], byte(p.epSeq >> 8), byte(p.epSeq)}
	ep := &Endpoint{Name: name, Node: node, IP: ip, Region: at}
	p.ips[name] = ip
	return ep
}

// sessionEndpoint picks the single relay for a Zoom/Webex-style session.
func (p *Platform) sessionEndpoint(host geo.Region) *Endpoint {
	// Occasional endpoint reuse (Webex sees ~19.5 distinct over 20).
	if p.lastEP != nil && p.rng.Float64() < p.cfg.EndpointReuseProb {
		return p.lastEP
	}
	var at geo.Region
	path := p.net.PathModel()
	switch {
	case p.cfg.PaidTier:
		at = path.Nearest(host, p.footprint())
	case host.Zone == geo.ZoneUS || len(p.cfg.USPoPs) == 1:
		// US sessions (or a single-PoP footprint like free-tier Webex):
		// nearest US PoP to the host.
		at = path.Nearest(host, p.cfg.USPoPs)
	case p.cfg.RegionalLB:
		// Non-US sessions on a US-only footprint: regional load
		// balancing across the US PoPs (Zoom's three RTT bands).
		at = p.cfg.USPoPs[p.rng.Intn(len(p.cfg.USPoPs))]
	default:
		at = path.Nearest(host, p.cfg.USPoPs)
	}
	ep := p.newEndpoint(at)
	p.lastEP = ep
	return ep
}

// clientEndpoint returns the Meet-style per-client endpoint, sticky
// across sessions.
func (p *Platform) clientEndpoint(clientNode *simnet.Node) *Endpoint {
	name := clientNode.Name()
	pair, ok := p.sticky[name]
	if !ok {
		at := p.net.PathModel().Nearest(clientNode.Region(), p.footprint())
		primary := p.newEndpoint(at)
		// The secondary is provisioned lazily on first flip.
		pair = [2]*Endpoint{primary, nil}
		p.sticky[name] = pair
	}
	if p.rng.Float64() < p.cfg.StickyFlipProb {
		if pair[1] == nil {
			at := p.net.PathModel().Nearest(clientNode.Region(), p.footprint())
			pair[1] = p.newEndpoint(at)
			p.sticky[name] = pair
		}
		return pair[1]
	}
	return pair[0]
}

// procDelay samples the endpoint's forwarding latency.
func (p *Platform) procDelay() time.Duration {
	j := p.rng.ExpFloat64() * float64(p.cfg.ProcJitterMean)
	return p.cfg.ProcBase + time.Duration(j)
}

// respondToProbes installs the tcpping responder on an endpoint.
func (p *Platform) respondToProbes(ep *Endpoint, next simnet.Handler) {
	probe.Respond(ep.Node, p.cfg.MediaPort, next)
}
