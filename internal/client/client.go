package client

import (
	"time"

	"github.com/vcabench/vcabench/internal/capture"
	"github.com/vcabench/vcabench/internal/codec"
	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/kit"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/rtp"
	"github.com/vcabench/vcabench/internal/simnet"
)

// MediaPort is the client's local media port.
const MediaPort = 5004

// Config describes one emulated client.
type Config struct {
	Name   string
	Region geo.Region
	// Access link; zero values mean an unconstrained cloud VM.
	UplinkBps, DownlinkBps int64
	QueueBytes             int
	LossProb               float64
	// Media generation (senders).
	SendVideo   bool
	VideoSource media.Source // explicit source; wins over VideoClass
	VideoClass  media.MotionClass
	Profile     media.Profile // zero => media.QuickProfile
	SendAudio   bool
	AudioClip   *media.AudioClip // required when SendAudio
	Seed        int64
	// Kit lends the client storage; a nil member keeps that storage
	// private. Frames holds its video's pixels: the frames of its own
	// motion source (not an explicit VideoSource) and its encoder's
	// reconstructions and resize-ladder transients. Reset hands every
	// one back and sets its Pix to nil, so every frame of the session
	// must be settled (RecordSession) and read before then. Capture
	// holds the traffic monitor's trace: the record array and the RTP
	// header chunks, which Release hands back, so every read of the
	// trace (and of any view of it) must happen before then. Packets
	// holds the packets of the client's packetizers, which Release
	// hands back too: a relay hands one packet to every receiver, and a
	// packet may sit in a pending simulator event after its session
	// ends, so Release only once nothing will run the session's
	// simulator again. The storage stays with the client's goroutine
	// while the client holds it. Kit.QoE and Kit.Sim are not the
	// client's to use.
	Kit kit.Kit
	// Resolve maps remote node names to IPs for the traffic monitor.
	Resolve Resolver
	// Probe, when set, observes media-pipeline events in sim time — the
	// flight-recorder seam (see internal/diag): kind "fec-recovery" when
	// frames complete despite fresh packet gaps (the reassembler
	// recovered them), "frame-drop" when incomplete frames are
	// abandoned. Value is the frame count. Nil costs one branch per
	// delivered media packet.
	Probe func(at time.Time, kind string, value float64)
}

// Client is one emulated participant: node + feeder + monitor +
// recorder.
type Client struct {
	cfg  Config
	sim  *simnet.Sim
	node *simnet.Node

	Monitor *Monitor

	att    *platform.Attachment
	enc    *codec.VideoEncoder
	pktzr  *rtp.Packetizer
	pktzrs []*rtp.Packetizer // every packetizer made, for Release
	src    media.Source
	reasm  *rtp.Reassembler
	sent   []codec.EncodedFrame
	sentAu []codec.AudioFrame
	// lastSent is the previous session's frame count, the capacity the
	// next session's frame log starts with.
	lastSent int
	gotVid   []*codec.EncodedFrame // complete arrivals, indexed by frame seq
	gotAu    map[int]*codec.AudioFrame

	feedEv, audEv, kaEv, repEv *simnet.Event

	// Feedback accounting (per reporting interval).
	recvBytes   int64
	prevPackets int
	prevGaps    int
	running     bool

	// Probe watermarks: reassembler counter levels already reported.
	probeGaps  int
	probeDrops int
}

// New creates a client and its network node.
func New(net *simnet.Network, cfg Config) *Client {
	if cfg.Profile.W == 0 {
		cfg.Profile = media.QuickProfile
	}
	node := net.AddNode(simnet.NodeConfig{
		Name: cfg.Name, Region: cfg.Region,
		UplinkBps: cfg.UplinkBps, DownlinkBps: cfg.DownlinkBps,
		QueueBytes: cfg.QueueBytes, LossProb: cfg.LossProb,
	})
	c := &Client{
		cfg:   cfg,
		sim:   net.Sim(),
		node:  node,
		reasm: rtp.NewReassembler(5),
		gotAu: make(map[int]*codec.AudioFrame),
	}
	c.Monitor = NewMonitor(node, cfg.Resolve, cfg.Kit.Capture)
	return c
}

// Node returns the client's network node.
func (c *Client) Node() *simnet.Node { return c.node }

// Name returns the client's node name.
func (c *Client) Name() string { return c.cfg.Name }

// Join attaches the client to a session (the meeting-join UI step's
// network effect). Must be called before the session starts.
func (c *Client) Join(s *platform.Session) *platform.Attachment {
	c.att = s.Join(c.node, platform.JoinOpts{Port: MediaPort, OnPacket: c.onPacket})
	return c.att
}

// Attachment returns the session handle (nil before Join).
func (c *Client) Attachment() *platform.Attachment { return c.att }

// Start begins media flow and periodic reporting. Call after the session
// has started.
func (c *Client) Start() {
	if c.att == nil {
		panic("client: Start before Join")
	}
	if c.running {
		panic("client: double Start")
	}
	c.running = true

	if c.cfg.SendVideo {
		c.src = c.cfg.VideoSource
		if c.src == nil {
			c.src = media.NewSourceOn(c.cfg.VideoClass, c.cfg.Profile, c.sim.Rand(c.cfg.Seed), c.cfg.Kit.Frames)
		}
		c.enc = codec.NewVideoEncoderOn(codec.VideoEncoderConfig{
			FPS:       c.src.FPS(),
			TargetBps: c.att.Target(),
			BitScale:  codec.BitScaleFor(c.cfg.Profile),
		}, c.cfg.Kit.Frames, c.sim.Rand(c.cfg.Seed+1))
		c.att.OnTarget(func(bps float64) { c.enc.SetTargetBps(bps) })
		// Sessions repeat, so the frame log starts at the last session's
		// length instead of growing from nil again. The array is new:
		// packets sent from the old one point into it and may still be
		// in flight.
		c.sent = make([]codec.EncodedFrame, 0, c.lastSent)
		c.newPacketizer(c.src.FPS())
		interval := time.Second / time.Duration(c.src.FPS())
		c.feedEv = c.sim.Every(interval, c.feedVideoFrame)
	}
	if c.cfg.SendAudio {
		if c.cfg.AudioClip == nil {
			panic("client: SendAudio without AudioClip")
		}
		aenc := codec.NewAudioEncoder(c.att.Session().AudioBps())
		c.sentAu = aenc.Encode(c.cfg.AudioClip)
		if c.pktzr == nil {
			c.newPacketizer(30)
		}
		i := 0
		c.audEv = c.sim.Every(time.Duration(codec.AudioFrameDur*float64(time.Second)), func() {
			if i >= len(c.sentAu) {
				c.audEv.Cancel()
				return
			}
			pkt := c.pktzr.Audio(&c.sentAu[i])
			c.att.Send(pkt.Bytes, pkt)
			i++
		})
	}
	// Control-plane keepalives: small packets that keep the session's
	// traffic pattern realistic (and give lag probes their quiescent
	// background, as in paper Fig 2).
	c.kaEv = c.sim.Every(500*time.Millisecond, func() {
		c.att.Send(60, "keepalive")
	})
	// Receiver feedback at 1 Hz.
	c.repEv = c.sim.Every(time.Second, c.reportStats)
}

// newPacketizer starts a new RTP stream on the client's packet storage.
func (c *Client) newPacketizer(fps int) {
	c.pktzr = rtp.NewPacketizerOn(uint32(c.cfg.Seed)+1000, rtp.DefaultMTU, fps, c.cfg.Kit.Packets)
	c.pktzrs = append(c.pktzrs, c.pktzr)
}

// feedVideoFrame encodes and transmits one frame tick.
func (c *Client) feedVideoFrame() {
	f := c.src.Next()
	ef := c.enc.Encode(f)
	c.sent = append(c.sent, ef)
	for _, pkt := range c.pktzr.Video(&c.sent[len(c.sent)-1]) {
		c.att.Send(pkt.Bytes, pkt)
	}
}

// onPacket handles media delivered by the platform.
func (c *Client) onPacket(pkt *simnet.Packet) {
	rp, ok := pkt.Payload.(*rtp.Packet)
	if !ok {
		return // keepalives and other control traffic
	}
	c.recvBytes += int64(pkt.Size)
	vids, au := c.reasm.Push(rp)
	for _, ef := range vids {
		for len(c.gotVid) <= ef.Seq {
			c.gotVid = append(c.gotVid, nil)
		}
		c.gotVid[ef.Seq] = ef
	}
	if au != nil {
		c.gotAu[au.Seq] = au
	}
	if c.cfg.Probe != nil {
		st := c.reasm.StatsSnapshot()
		// Frames completing while new sequence gaps are outstanding were
		// recovered out of order — the loss-concealment event the paper
		// observes in webrtc-internals.
		if len(vids) > 0 && st.PacketGaps > c.probeGaps {
			c.cfg.Probe(c.sim.Now(), "fec-recovery", float64(len(vids)))
			c.probeGaps = st.PacketGaps
		}
		if st.FramesDropped > c.probeDrops {
			c.cfg.Probe(c.sim.Now(), "frame-drop", float64(st.FramesDropped-c.probeDrops))
			c.probeDrops = st.FramesDropped
		}
	}
}

// reportStats sends one feedback interval to the platform.
func (c *Client) reportStats() {
	st := c.reasm.StatsSnapshot()
	dPkts := st.Packets - c.prevPackets
	dGaps := st.PacketGaps - c.prevGaps
	c.prevPackets = st.Packets
	c.prevGaps = st.PacketGaps
	goodput := float64(c.recvBytes) * 8
	c.recvBytes = 0
	if dPkts+dGaps == 0 {
		return // nothing received; nothing to report
	}
	loss := float64(dGaps) / float64(dPkts+dGaps)
	c.att.ReportReceiverStats(loss, goodput)
}

// Stop halts media flow and reporting and closes the media socket, so
// packets still in flight when the client leaves are dropped at the node
// instead of leaking into a later session's receive path.
func (c *Client) Stop() {
	for _, ev := range []*simnet.Event{c.feedEv, c.audEv, c.kaEv, c.repEv} {
		if ev != nil {
			ev.Cancel()
		}
	}
	c.node.Unbind(MediaPort)
	c.running = false
}

// Reset clears per-session media state so the client (and its node, with
// the accumulated capture) can join the next session, as the paper's VMs
// do across their 20-session campaigns. The traffic trace is preserved
// until Release. A client on a lent pool (Config.Kit.Frames) hands back the
// storage of the session's reconstructions, then of its source frames,
// leaving every one without pixels, then its motion source's own
// background (media.Release); it panics if a frame is still pending.
func (c *Client) Reset() {
	if c.running {
		panic("client: Reset while running")
	}
	if p := c.cfg.Kit.Frames; p != nil && c.enc != nil {
		// Reconstructions first: Recycle panics on a pending frame,
		// whose build would still read its source.
		c.enc.Recycle(c.sent)
		if c.cfg.VideoSource == nil {
			for i := range c.sent {
				p.Put(c.sent[i].Source)
			}
			media.Release(c.src)
		}
	}
	c.reasm = rtp.NewReassembler(5)
	c.gotVid = nil
	c.gotAu = make(map[int]*codec.AudioFrame)
	c.lastSent = len(c.sent)
	c.sent = nil
	c.sentAu = nil
	c.recvBytes = 0
	c.prevPackets = 0
	c.prevGaps = 0
	c.probeGaps = 0
	c.probeDrops = 0
	c.att = nil
}

// Release ends the storage lifetime of the client's traffic trace
// (Monitor.Release) and of every RTP packet it has sent (see
// Config.Kit), so no view of the trace and no packet may be read
// again. What the client captures or sends afterwards lands on new
// storage.
func (c *Client) Release() {
	c.Monitor.Release()
	for _, p := range c.pktzrs {
		p.Release()
	}
}

// SentVideo returns the sender-side encoded-frame log.
func (c *Client) SentVideo() []codec.EncodedFrame { return c.sent }

// ReceivedVideo returns frames that arrived complete, by sender frame
// seq. It builds a new map on every call.
func (c *Client) ReceivedVideo() map[int]*codec.EncodedFrame {
	m := make(map[int]*codec.EncodedFrame)
	for seq, ef := range c.gotVid {
		if ef != nil {
			m[seq] = ef
		}
	}
	return m
}

// Trace returns the client's packet capture.
func (c *Client) Trace() *capture.Trace { return c.Monitor.Trace() }

// Recording is the desktop-recorder output for one received stream.
// Displayed holds decoder handles, one per display slot, so a freeze
// shows the identical *media.Frame again. A handle has pixels only if
// some receiver of the session shows it at a scored slot (see
// RecordSession); the others keep nil Pix and serve identity checks.
type Recording struct {
	Ref       []*media.Frame // injected source frames (per display slot)
	Displayed []*media.Frame // what the viewer saw (nil = nothing yet)
	Audio     *media.AudioClip
	RefAudio  *media.AudioClip
}

// RecordSession builds every receiver's recording of sender's stream
// against the sender's ground-truth logs, for a scorer that reads every
// stride-th display slot (qoe.Scorer.CompareSession with the same
// stride). Per display slot, a viewer sees the decoded frame if it
// arrived complete, a freeze if the encoder skipped, or a loss-freeze
// otherwise. Pixels are built, in encode order, only for the frames
// some receiver shows at a scored slot; every other coded frame is
// released. The set covers every receiver before any frame is built or
// released: a frame one receiver shows only at unscored slots may stay
// on another's screen until a scored one, and a released frame cannot
// be built later.
func RecordSession(sender *Client, receivers []*Client, stride int) []Recording {
	if stride < 1 {
		stride = 1
	}
	sent := sender.SentVideo()
	ref := make([]*media.Frame, len(sent))
	for i := range sent {
		ref[i] = sent[i].Source
	}
	recs := make([]Recording, len(receivers))
	keep := make(map[*media.Frame]bool)
	for r, c := range receivers {
		recs[r] = c.record(sender, ref)
		for i := 0; i < len(sent); i += stride {
			if f := recs[r].Displayed[i]; f != nil {
				keep[f] = true
			}
		}
	}
	codec.Materialize(sent, keep)
	return recs
}

// record replays c's arrivals of sender's stream through a decoder,
// keeping the shown handles, and decodes c's audio.
func (c *Client) record(sender *Client, ref []*media.Frame) Recording {
	sent := sender.SentVideo()
	rec := Recording{Ref: ref, Displayed: make([]*media.Frame, len(sent))}
	dec := codec.NewVideoDecoder()
	for i := range sent {
		ef := &sent[i]
		switch {
		case ef.Skipped:
			rec.Displayed[i] = dec.Show(ef) // sender stalled: freeze, chain intact
		case ef.Seq < len(c.gotVid) && c.gotVid[ef.Seq] != nil:
			rec.Displayed[i] = dec.Show(c.gotVid[ef.Seq])
		default:
			rec.Displayed[i] = dec.Show(nil) // network loss
		}
	}
	if len(sender.sentAu) > 0 {
		ptrs := make([]*codec.AudioFrame, len(sender.sentAu))
		for i := range sender.sentAu {
			if af := c.gotAu[sender.sentAu[i].Seq]; af != nil {
				ptrs[i] = af
			}
		}
		adec := codec.NewAudioDecoder(c.sim.Rand(c.cfg.Seed + 7))
		rate := sender.cfg.AudioClip.Rate
		bps := sender.att.Session().AudioBps()
		rec.Audio = adec.Decode(ptrs, rate, bps)
		rec.RefAudio = sender.cfg.AudioClip
	}
	return rec
}
