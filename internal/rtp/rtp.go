// Package rtp packetizes encoded media into RTP-framed datagrams and
// reassembles them at the receiver. Packet payloads carry references to
// the encoded-frame metadata (the simulator's stand-in for encrypted media
// bytes); headers carry real RTP semantics — SSRC, per-packet sequence
// numbers, per-frame timestamps, and a marker bit on the last fragment of
// each frame — which is exactly the metadata the paper's traffic analysis
// can see from the outside.
package rtp

import (
	"github.com/vcabench/vcabench/internal/capture"
	"github.com/vcabench/vcabench/internal/codec"
)

// Payload types used by the simulated clients.
const (
	PTVideo = 96
	PTAudio = 111
)

// VideoClockHz is the RTP clock for video (RFC 3551 convention).
const VideoClockHz = 90000

// DefaultMTU is the maximum L7 datagram size (RTP header + media).
const DefaultMTU = 1200

// HeaderLen is the fixed RTP header length.
const HeaderLen = 12

// Payload is the application object carried by a simulated packet.
type Payload struct {
	Video     *codec.EncodedFrame
	Audio     *codec.AudioFrame
	FragIndex int
	FragCount int
}

// Packet is one RTP datagram: header metadata plus wire size.
type Packet struct {
	Info  capture.RTPInfo
	Bytes int // L7 length: HeaderLen + media fragment bytes
	Data  *Payload
}

// Packetizer fragments encoded frames into RTP packets.
type Packetizer struct {
	ssrc uint32
	mtu  int
	fps  int
	seq  uint16
	ts   uint32
}

// NewPacketizer creates a packetizer for one media stream. fps is the
// video frame cadence driving the RTP timestamp advance.
func NewPacketizer(ssrc uint32, mtu, fps int) *Packetizer {
	if mtu <= HeaderLen {
		mtu = DefaultMTU
	}
	if fps <= 0 {
		fps = 30
	}
	return &Packetizer{ssrc: ssrc, mtu: mtu, fps: fps}
}

// Video fragments an encoded video frame. Skipped frames produce no
// packets (the sender has nothing to send) but still advance the RTP
// timestamp, as a real encoder's clock does.
func (p *Packetizer) Video(ef *codec.EncodedFrame) []*Packet {
	ts := p.ts
	p.ts += uint32(VideoClockHz / p.fps)
	if ef == nil || ef.Skipped || ef.Bits <= 0 {
		return nil
	}
	mediaBytes := (ef.Bits + 7) / 8
	maxFrag := p.mtu - HeaderLen
	count := (mediaBytes + maxFrag - 1) / maxFrag
	if count == 0 {
		count = 1
	}
	// One frame's fragments are allocated as three slabs (pointer slice,
	// packets, payloads) instead of 1+2*count individual objects; the
	// fragments live and die together, so batching costs no retention.
	pkts := make([]*Packet, count)
	backing := make([]Packet, count)
	payloads := make([]Payload, count)
	remaining := mediaBytes
	for i := 0; i < count; i++ {
		frag := maxFrag
		if remaining < frag {
			frag = remaining
		}
		remaining -= frag
		payloads[i] = Payload{Video: ef, FragIndex: i, FragCount: count}
		backing[i] = Packet{
			Info: capture.RTPInfo{
				SSRC:    p.ssrc,
				Seq:     p.seq,
				TS:      ts,
				Marker:  i == count-1,
				PT:      PTVideo,
				KeyUnit: ef.Keyframe,
			},
			Bytes: HeaderLen + frag,
			Data:  &payloads[i],
		}
		pkts[i] = &backing[i]
		p.seq++
	}
	return pkts
}

// Audio wraps one coded audio frame (always a single packet).
func (p *Packetizer) Audio(af *codec.AudioFrame) *Packet {
	pkt := &Packet{
		Info: capture.RTPInfo{
			SSRC:   p.ssrc,
			Seq:    p.seq,
			TS:     p.ts,
			Marker: true,
			PT:     PTAudio,
		},
		Bytes: HeaderLen + (af.Bits+7)/8,
		Data:  &Payload{Audio: af, FragIndex: 0, FragCount: 1},
	}
	p.seq++
	p.ts += uint32(float64(VideoClockHz) * codec.AudioFrameDur)
	return pkt
}

// Stats counts reassembly outcomes.
type Stats struct {
	Packets        int
	FramesComplete int
	FramesDropped  int // abandoned incomplete frames
	PacketGaps     int // sequence discontinuities observed
}

// Reassembler rebuilds complete frames from fragments. Frames complete
// out of order within a small window; frames still incomplete when the
// window moves past them are abandoned (counted as dropped).
type Reassembler struct {
	depth   int // how many newer frames may complete before giving up
	pend    map[int]*assembly
	doneSeq []uint64 // bitset over frame seq: finished or abandoned
	maxSeen int
	stats   Stats
	lastPkt uint16
	havePkt bool
	freeAsm []*assembly // recycled assemblies (finished or abandoned)
}

type assembly struct {
	frame *codec.EncodedFrame
	got   uint64       // fragment-arrival bitmask when count <= 64
	big   map[int]bool // fallback for frames wider than the bitmask
	ngot  int          // distinct fragments seen
	count int
}

// add records fragment i's arrival, ignoring duplicates.
func (a *assembly) add(i int) {
	if a.big != nil {
		if !a.big[i] {
			a.big[i] = true
			a.ngot++
		}
		return
	}
	if bit := uint64(1) << uint(i); a.got&bit == 0 {
		a.got |= bit
		a.ngot++
	}
}

// newAssembly takes an assembly from the free-list (or the heap).
func (r *Reassembler) newAssembly(ef *codec.EncodedFrame, count int) *assembly {
	var a *assembly
	if k := len(r.freeAsm); k > 0 {
		a = r.freeAsm[k-1]
		r.freeAsm = r.freeAsm[:k-1]
		*a = assembly{}
	} else {
		a = &assembly{}
	}
	a.frame = ef
	a.count = count
	if count > 64 {
		a.big = make(map[int]bool, count)
	}
	return a
}

// release recycles an assembly whose frame seq has been closed.
func (r *Reassembler) release(a *assembly) {
	a.frame = nil
	a.big = nil
	r.freeAsm = append(r.freeAsm, a)
}

// done reports whether frame seq has been closed (completed or
// abandoned). Frame seqs count up from 0 within a stream.
func (r *Reassembler) done(seq int) bool {
	w := seq >> 6
	return w < len(r.doneSeq) && r.doneSeq[w]&(1<<uint(seq&63)) != 0
}

// close marks frame seq finished, growing the bitset to cover it.
func (r *Reassembler) close(seq int) {
	w := seq >> 6
	for len(r.doneSeq) <= w {
		r.doneSeq = append(r.doneSeq, 0)
	}
	r.doneSeq[w] |= 1 << uint(seq&63)
}

// NewReassembler creates a reassembler. depth is the completion window in
// frames (default 5).
func NewReassembler(depth int) *Reassembler {
	if depth <= 0 {
		depth = 5
	}
	return &Reassembler{
		depth:   depth,
		pend:    make(map[int]*assembly),
		maxSeen: -1,
	}
}

// Push consumes one arriving packet and returns any video frames that
// completed as a result (in frame order). Audio packets complete
// immediately and are returned via the second result.
func (r *Reassembler) Push(pkt *Packet) (videos []*codec.EncodedFrame, audio *codec.AudioFrame) {
	r.stats.Packets++
	if r.havePkt && pkt.Info.Seq != r.lastPkt+1 {
		r.stats.PacketGaps++
	}
	r.lastPkt = pkt.Info.Seq
	r.havePkt = true

	if pkt.Data == nil {
		return nil, nil
	}
	if pkt.Data.Audio != nil {
		return nil, pkt.Data.Audio
	}
	ef := pkt.Data.Video
	if ef == nil {
		return nil, nil
	}
	fseq := ef.Seq
	if r.done(fseq) {
		return nil, nil // fragment of a finished or abandoned frame
	}
	a := r.pend[fseq]
	if a == nil {
		a = r.newAssembly(ef, pkt.Data.FragCount)
		r.pend[fseq] = a
	}
	a.add(pkt.Data.FragIndex)
	if fseq > r.maxSeen {
		r.maxSeen = fseq
	}
	if a.ngot == a.count {
		delete(r.pend, fseq)
		r.release(a)
		r.close(fseq)
		r.stats.FramesComplete++
		videos = append(videos, ef)
	}
	// Abandon frames the window has moved past; close them so late
	// fragments cannot re-open (and re-count) them.
	for s, old := range r.pend {
		if s < r.maxSeen-r.depth {
			delete(r.pend, s)
			r.release(old)
			r.close(s)
			r.stats.FramesDropped++
		}
	}
	return videos, nil
}

// Flush abandons all pending frames (end of session) and returns stats.
func (r *Reassembler) Flush() Stats {
	r.stats.FramesDropped += len(r.pend)
	for _, a := range r.pend {
		r.release(a)
	}
	r.pend = make(map[int]*assembly)
	return r.stats
}

// StatsSnapshot returns the current counters without flushing.
func (r *Reassembler) StatsSnapshot() Stats { return r.stats }
