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

	// store lends the fragments' storage; nil allocates each frame's.
	// held lists the chunks taken from it, the one being filled first,
	// and used counts the slots of that one already handed out.
	store *Store
	held  *Chunk
	used  int
}

// NewPacketizer creates a packetizer for one media stream. fps is the
// video frame cadence driving the RTP timestamp advance. Its packets'
// storage is allocated.
func NewPacketizer(ssrc uint32, mtu, fps int) *Packetizer {
	return NewPacketizerOn(ssrc, mtu, fps, nil)
}

// NewPacketizerOn is NewPacketizer with every packet's storage taken
// from store until Release; a nil store allocates it. The packets are
// the same either way.
func NewPacketizerOn(ssrc uint32, mtu, fps int, store *Store) *Packetizer {
	if mtu <= HeaderLen {
		mtu = DefaultMTU
	}
	if fps <= 0 {
		fps = 30
	}
	return &Packetizer{ssrc: ssrc, mtu: mtu, fps: fps, store: store}
}

// slots returns storage for count packets: a view into the packetizer's
// current chunk, or into a new one when that has too little room left.
// On nil storage, or for more packets than a chunk holds, it allocates
// three slabs (pointer slice, packets, payloads) instead of 1+2*count
// objects; the fragments live and die together, so batching costs no
// retention. The slots come back dirty: the caller writes every one.
func (p *Packetizer) slots(count int) ([]*Packet, []Packet, []Payload) {
	if p.store == nil || count > ChunkLen {
		return make([]*Packet, count), make([]Packet, count), make([]Payload, count)
	}
	if p.held == nil || p.used+count > ChunkLen {
		c := p.store.take()
		c.next, p.held, p.used = p.held, c, 0
	}
	c, lo, hi := p.held, p.used, p.used+count
	p.used = hi
	return c.Ptrs[lo:hi:hi], c.Packets[lo:hi:hi], c.Payloads[lo:hi:hi]
}

// Release ends the storage lifetime of every packet p made: the chunks
// go back to p's store, so no packet p returned may be read again, by
// any receiver or from any pending event. p then leaves the store: a
// packet made after Release is allocated, never put on a chunk given
// back. On nil storage it does nothing.
func (p *Packetizer) Release() {
	for c := p.held; c != nil; {
		next := c.next
		p.store.put(c)
		c = next
	}
	p.store, p.held, p.used = nil, nil, 0
}

// Video fragments an encoded video frame. Skipped frames produce no
// packets (the sender has nothing to send) but still advance the RTP
// timestamp, as a real encoder's clock does. On a store, the returned
// slice is a view into the store's chunk, valid until Release.
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
	pkts, backing, payloads := p.slots(count)
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

// Audio wraps one coded audio frame (always a single packet). On a
// store, the packet lives on the store's chunk until Release.
func (p *Packetizer) Audio(af *codec.AudioFrame) *Packet {
	var (
		pkt *Packet
		pl  *Payload
	)
	if p.store == nil {
		pkt, pl = new(Packet), new(Payload)
	} else {
		_, pkts, pls := p.slots(1)
		pkt, pl = &pkts[0], &pls[0]
	}
	*pl = Payload{Audio: af, FragIndex: 0, FragCount: 1}
	*pkt = Packet{
		Info: capture.RTPInfo{
			SSRC:   p.ssrc,
			Seq:    p.seq,
			TS:     p.ts,
			Marker: true,
			PT:     PTAudio,
		},
		Bytes: HeaderLen + (af.Bits+7)/8,
		Data:  pl,
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
	freeAsm []*assembly            // recycled assemblies (finished or abandoned)
	one     [1]*codec.EncodedFrame // Push's result storage
}

type assembly struct {
	frame *codec.EncodedFrame
	got   uint64   // fragment-arrival bitmask when count <= 64
	wide  []uint64 // arrival bitset of a frame wider than the mask; its storage outlives reuse
	ngot  int      // distinct fragments seen
	count int
}

// add records fragment i's arrival, ignoring duplicates.
func (a *assembly) add(i int) {
	mask, bit := &a.got, uint64(1)<<uint(i&63)
	if a.count > 64 {
		mask = &a.wide[i>>6]
	}
	if *mask&bit == 0 {
		*mask |= bit
		a.ngot++
	}
}

// newAssembly takes an assembly from the free-list (or the heap).
func (r *Reassembler) newAssembly(ef *codec.EncodedFrame, count int) *assembly {
	var a *assembly
	if k := len(r.freeAsm); k > 0 {
		a = r.freeAsm[k-1]
		r.freeAsm = r.freeAsm[:k-1]
		*a = assembly{wide: a.wide}
	} else {
		a = &assembly{}
	}
	a.frame = ef
	a.count = count
	if count > 64 {
		n := (count + 63) >> 6
		if cap(a.wide) < n {
			a.wide = make([]uint64, n)
		} else {
			a.wide = a.wide[:n]
			clear(a.wide)
		}
	}
	return a
}

// release recycles an assembly whose frame seq has been closed.
func (r *Reassembler) release(a *assembly) {
	a.frame = nil
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
// completed as a result (in frame order); the slice is valid until the
// next Push. Audio packets complete immediately and are returned via
// the second result.
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
	advanced := fseq > r.maxSeen
	if advanced {
		r.maxSeen = fseq
	}
	if a.ngot == a.count {
		delete(r.pend, fseq)
		r.release(a)
		r.close(fseq)
		r.stats.FramesComplete++
		r.one[0] = ef
		videos = r.one[:]
	}
	// Abandon frames the window has moved past; close them so late
	// fragments cannot re-open (and re-count) them. Every other pending
	// frame was inside the window after the last Push, so only a window
	// that advanced or a frame opened behind it can leave one outside.
	if advanced || fseq < r.maxSeen-r.depth {
		for s, old := range r.pend {
			if s < r.maxSeen-r.depth {
				delete(r.pend, s)
				r.release(old)
				r.close(s)
				r.stats.FramesDropped++
			}
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
