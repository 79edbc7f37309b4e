// Package codec models the video and audio codecs inside a
// videoconferencing client. The model is rate-distortion based rather than
// a bit-exact H.264/Opus implementation: what the paper measures is how
// *quality responds to content motion, target bitrate and loss*, and those
// responses are produced here from first principles:
//
//   - per-frame coding cost follows R = C·Npix·log2(1 + m/Δ), where m is
//     the frame's motion/detail complexity and Δ the quantizer step;
//   - reconstruction error is quantization noise with variance Δ²/12, so
//     PSNR/SSIM/VIFp of decoded frames emerge from the simulation instead
//     of being asserted;
//   - a leaky-bucket rate controller tracks the platform's target bitrate
//     and skips frames when the bit debt grows too large (stalls);
//   - the decoder freezes on loss until the next keyframe, as real
//     decoders effectively do for the viewer.
//
// Because experiments may run at a reduced resolution/frame rate profile,
// the encoder carries a BitScale factor that maps "wire" bits (what the
// network sees, calibrated to the paper's 640x480@30 feeds) to "effective"
// bits (what quality is computed from), keeping both the traffic rates and
// the quality figures on the paper's scales at any profile.
package codec

import (
	"math"
	"math/rand"

	"github.com/vcabench/vcabench/internal/media"
)

// EncodedFrame is the unit handed to the packetizer.
type EncodedFrame struct {
	Seq      int  // encoder frame index
	Keyframe bool // intra frame
	Skipped  bool // rate controller dropped this frame (stall)
	Bits     int  // wire bits (what the network carries)
	QStep    float64
	// Source is the frame given to the encoder, kept in place of actual
	// compressed bytes. What a decoder reconstructs from it is built on
	// first use by Recon; every copy of the frame shares that handle.
	Source *media.Frame
	recon  *recon // nil for skipped frames
}

// recon is one coded frame's deferred reconstruction: what Encode would
// have quantized, recorded until the frame is built or released. Encode
// allocates one per coded frame, lag studies included, so a release is
// marked by a nil enc rather than a field that would grow it past 48
// bytes.
type recon struct {
	enc        *VideoEncoder // nil once built or released
	src        *media.Frame
	qstep      float64
	encW, encH int // resolution-ladder size the frame was coded at
	// frame is the handle every decoder shows for this coded frame,
	// allocated on first show; its Pix is filled when the frame is built.
	frame *media.Frame
}

// handle returns the frame decoders show for r, without building it.
func (r *recon) handle() *media.Frame {
	if r.frame == nil {
		r.frame = &media.Frame{W: r.src.W, H: r.src.H}
	}
	return r.frame
}

// build fills r's handle with its pixels, first building or skipping
// past every earlier frame of its encoder still pending.
func (r *recon) build() *media.Frame {
	if r.enc != nil {
		r.enc.develop(r)
	} else if r.frame == nil || r.frame.Pix == nil {
		panic("codec: pixels asked of a released reconstruction")
	}
	return r.frame
}

// release gives up a pending reconstruction: its pixels are never
// built, and building a later frame of the encoder only draws past it.
// A released frame stays on its encoder's pending queue with a nil enc.
func (r *recon) release() { r.enc = nil }

// Recon returns what a decoder reconstructs from ef (nil for a skipped
// frame). The frame is built on the first call and cached, so every copy
// of ef returns the same *media.Frame. Building it first builds every
// earlier frame of its encoder still pending, in encode order, so the
// quantization noise draws are the same whichever frame is asked for
// first. Recon changes its encoder's state: call it only from the
// encoder's goroutine. It panics on a frame Materialize released.
func (ef *EncodedFrame) Recon() *media.Frame {
	if ef.recon == nil {
		return nil
	}
	return ef.recon.build()
}

// Materialize settles the reconstruction of every frame in sent, one
// encoder's frames in encode order: it builds each frame whose decoder
// handle is in keep and releases every other frame still pending. A
// released frame costs its encoder only the generator draws its
// pixels would have used, and only when a later frame is built; its
// handle keeps nil pixels. Frames already built stay built.
func Materialize(sent []EncodedFrame, keep map[*media.Frame]bool) {
	for i := range sent {
		r := sent[i].recon
		switch {
		case r == nil || r.enc == nil:
			// Skipped by the encoder, or settled already.
		case r.frame != nil && keep[r.frame]:
			r.build()
		default:
			r.release()
		}
	}
}

// VideoEncoderConfig tunes the encoder model.
type VideoEncoderConfig struct {
	// FPS of the input feed.
	FPS int
	// TargetBps is the initial wire bitrate target.
	TargetBps float64
	// GOP is the keyframe interval in frames (default 2 s worth).
	GOP int
	// BitScale maps effective (quality) bits to wire bits; use
	// BitScaleFor to derive it from the active profile. 0 means 1.
	BitScale float64
	// Seed drives the quantization noise of NewVideoEncoder;
	// NewVideoEncoderOn draws it from the generator it is given.
	Seed int64
	// SceneCutMAD forces a keyframe above this inter-frame complexity
	// (default 45).
	SceneCutMAD float64
	// DebtLimitSec is how many seconds of target bits the controller may
	// owe before skipping frames (default 0.35 s).
	DebtLimitSec float64
}

// BitScaleFor returns the BitScale that keeps wire bitrates on the
// paper's 640x480@30 scale when encoding at profile p.
func BitScaleFor(p media.Profile) float64 {
	ref := float64(media.PaperProfile.W*media.PaperProfile.H) * float64(media.PaperProfile.FPS)
	got := float64(p.W*p.H) * float64(p.FPS)
	return ref / got
}

// Rate-distortion model constants.
const (
	rdBitsPerPixel = 0.55 // C in R = C·Npix·log2(1+m/Δ)
	// minQStep is the quality ceiling: encoders stop spending bits once
	// content is transparent at this quantizer, which is what makes
	// low-motion streams *cheaper* than their CBR target (Webex's rate
	// nearly halves on LM, paper §4.3.1).
	minQStep = 10
	maxQStep = 200
	// Floor on per-frame complexity: even a static scene costs something.
	minComplexity = 0.6
	// Keyframes code the full picture; inter frames code residuals.
	keyframeCostFactor = 1.0
)

// VideoEncoder encodes a frame stream under a dynamic bitrate target.
type VideoEncoder struct {
	cfg        VideoEncoderConfig
	rng        *rand.Rand
	prevSource *media.Frame // complexity reference (noise-free)
	seq        int
	sinceKey   int
	debtBits   float64
	targetBps  float64
	// pending holds the coded frames whose reconstructions are not
	// built yet, in encode order (see EncodedFrame.Recon).
	pending []*recon
	// frames holds the storage of the reconstructions the encoder
	// builds: a lent pool, or nil to allocate each one (see
	// NewVideoEncoderOn). ladder recycles the resize ladder's transient
	// frames (the down-scaled source and its quantized form), which
	// return as soon as they are consumed: frames when it is set, else
	// a private pool.
	frames, ladder *media.FramePool
}

// NewVideoEncoder creates an encoder. Config zero-values are defaulted.
func NewVideoEncoder(cfg VideoEncoderConfig) *VideoEncoder {
	return NewVideoEncoderOn(cfg, nil, rand.New(rand.NewSource(cfg.Seed)))
}

// NewVideoEncoderOn is NewVideoEncoder with its quantization noise
// drawn from rng, which the encoder owns from then on, in place of
// cfg.Seed's stream, and reconstructions built on storage from frames;
// nil allocates each one. Hand the storage back with Recycle. The pool
// must stay on the encoder's goroutine while the encoder may build.
func NewVideoEncoderOn(cfg VideoEncoderConfig, frames *media.FramePool, rng *rand.Rand) *VideoEncoder {
	if cfg.FPS <= 0 {
		cfg.FPS = media.PaperProfile.FPS
	}
	if cfg.GOP <= 0 {
		cfg.GOP = cfg.FPS * 2
	}
	if cfg.BitScale <= 0 {
		cfg.BitScale = 1
	}
	if cfg.SceneCutMAD <= 0 {
		cfg.SceneCutMAD = 45
	}
	if cfg.DebtLimitSec <= 0 {
		cfg.DebtLimitSec = 0.35
	}
	if cfg.TargetBps <= 0 {
		cfg.TargetBps = 1e6
	}
	ladder := frames
	if ladder == nil {
		ladder = media.NewFramePool()
	}
	return &VideoEncoder{
		cfg:       cfg,
		rng:       rng,
		targetBps: cfg.TargetBps,
		frames:    frames,
		ladder:    ladder,
	}
}

// SetTargetBps changes the wire bitrate target (platform adaptation).
func (e *VideoEncoder) SetTargetBps(bps float64) {
	if bps > 0 {
		e.targetBps = bps
	}
}

// TargetBps returns the current wire bitrate target.
func (e *VideoEncoder) TargetBps() float64 { return e.targetBps }

// Encode consumes the next source frame and returns its encoded form.
// A Skipped frame carries no bits and no reconstruction: the rate
// controller is stalling the stream. Encode does not quantize; the
// reconstruction is built when a decoder first asks for it.
func (e *VideoEncoder) Encode(f *media.Frame) EncodedFrame {
	seq := e.seq
	e.seq++
	budget := e.targetBps / float64(e.cfg.FPS)
	debtLimit := e.targetBps * e.cfg.DebtLimitSec

	// Complexity is measured against the previous *source* frame: it
	// reflects content motion, independent of how noisy the last
	// reconstruction happened to be. A keyframe's complexity is its
	// spatial detail instead, so once the GOP forces one the motion
	// measure is not computed.
	key := e.prevSource == nil || e.sinceKey+1 >= e.cfg.GOP
	var m float64
	if !key {
		m = media.MeanAbsDiff(f, e.prevSource)
		if m > e.cfg.SceneCutMAD {
			key = true
		}
	}
	if key {
		m = f.SpatialDetail() * keyframeCostFactor
	}
	if m < minComplexity {
		m = minComplexity
	}
	e.prevSource = f

	if e.debtBits > debtLimit {
		// Stall: skip the frame, recover budget.
		e.sinceKey++
		e.debtBits -= budget
		if e.debtBits < 0 {
			e.debtBits = 0
		}
		return EncodedFrame{Seq: seq, Skipped: true, Source: f}
	}

	// Choose the quantizer to hit the per-frame budget (minus debt
	// correction), then derive actual bits from the clamped quantizer.
	// Here and below, a float64 conversion rounds a product before the
	// add or subtract that follows it, so arm64 cannot fuse the two into
	// one multiply-add.
	want := budget - float64(e.debtBits*0.25)
	if key {
		// Keyframes get extra headroom; the controller amortizes it.
		want *= 2.5
	}
	npix := float64(f.W * f.H)
	effWant := want / e.cfg.BitScale

	// Resolution ladder: below a bits-per-pixel threshold real encoders
	// trade resolution for quantization fidelity (the 360p/180p tiles
	// low-rate sessions actually carry). Reconstruction then shows blur
	// rather than catastrophic quantization noise.
	scale := 1
	switch bpp := effWant / npix; {
	case bpp < 0.015:
		scale = 4
	case bpp < 0.06:
		scale = 2
	}
	encW, encH := f.W/scale, f.H/scale
	if encW < 8 || encH < 8 {
		scale = 1
		encW, encH = f.W, f.H
	}
	encPix := float64(encW * encH)

	qstep := solveQStep(m, effWant, encPix)
	effBits := rdBitsPerPixel * encPix * math.Log2(1+m/qstep)
	bits := float64(effBits * e.cfg.BitScale)

	r := &recon{enc: e, src: f, qstep: qstep, encW: encW, encH: encH}
	e.pending = append(e.pending, r)
	if key {
		e.sinceKey = 0
	} else {
		e.sinceKey++
	}
	e.debtBits += bits - budget
	if e.debtBits < 0 {
		e.debtBits = 0
	}
	return EncodedFrame{
		Seq: seq, Keyframe: key, Bits: int(bits), QStep: qstep,
		Source: f, recon: r,
	}
}

// develop builds every pending reconstruction in encode order, up to
// and including r, drawing past the released ones. Skipping a frame's
// draws would shift the noise draws of every frame after it.
func (e *VideoEncoder) develop(r *recon) {
	for i, p := range e.pending {
		if p.enc == nil { // released
			skipFloat64s(e.rng, p.encW*p.encH)
		} else {
			e.reconstruct(p)
		}
		p.enc = nil
		e.pending[i] = nil
		if p == r {
			e.pending = e.pending[i+1:]
			return
		}
	}
	panic("codec: reconstruction not pending on its encoder")
}

// skipFloat64s advances rng past n Float64 calls without computing
// them. Float64 divides one Int63 by 2^63 and draws again when that
// rounds to 1.0, which happens exactly for Int63 >= 2^63-512: float64
// spacing below 2^63 is 1024, and the tie at 2^63-512 rounds to even.
func skipFloat64s(rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		for rng.Int63() >= 1<<63-512 {
		}
	}
}

// reconstruct quantizes p's source at its qstep into p's handle, coding
// it at the ladder size and scaling the result back up when the ladder
// stepped down.
func (e *VideoEncoder) reconstruct(p *recon) {
	f, r := p.src, p.handle()
	e.frames.Alloc(r)
	if p.encW == f.W && p.encH == f.H {
		e.quantizeTo(r, f, p.qstep)
		return
	}
	small := media.Frame{W: p.encW, H: p.encH}
	e.ladder.Alloc(&small)
	f.ResizeInto(&small)
	qsmall := media.Frame{W: p.encW, H: p.encH}
	e.ladder.Alloc(&qsmall)
	e.quantizeTo(&qsmall, &small, p.qstep)
	qsmall.ResizeInto(r)
	e.ladder.Put(&small)
	e.ladder.Put(&qsmall)
}

// Recycle hands back the storage of every reconstruction built for
// sent, the frames this encoder coded, to the encoder's pool, and sets
// each one's Pix to nil; an encoder without a pool keeps them. Call it
// once nothing reads the session's frames. Every frame of sent must be
// settled (built, released or skipped; see Materialize): Recycle
// panics on a pending one, whose build would still read its source.
func (e *VideoEncoder) Recycle(sent []EncodedFrame) {
	for i := range sent {
		switch r := sent[i].recon; {
		case r == nil:
			// Skipped: nothing was built.
		case r.enc != nil:
			panic("codec: Recycle of a frame whose reconstruction is pending")
		case r.frame != nil && r.frame.Pix != nil:
			e.frames.Put(r.frame)
		}
	}
}

// solveQStep inverts the rate model for a bit budget, clamped to the
// codec's quantizer range.
func solveQStep(m, bits, npix float64) float64 {
	if bits <= 0 {
		return maxQStep
	}
	den := math.Exp2(bits/(rdBitsPerPixel*npix)) - 1
	if den <= 0 {
		return maxQStep
	}
	q := m / den
	if q < minQStep {
		q = minQStep
	}
	if q > maxQStep {
		q = maxQStep
	}
	return q
}

// quantizeTo writes the quantized form of f into r (same geometry,
// every pixel): source plus uniform quantization noise in ±Δ/2, one
// noise sample per pixel drawn in row-major order.
func (e *VideoEncoder) quantizeTo(r, f *media.Frame, qstep float64) {
	half := qstep / 2
	for i := range r.Pix {
		// The conversions keep arm64 from fusing a product into the
		// add that follows it: Float64's inlined scaling into the
		// doubling (which the compiler turns into an add), and the
		// noise into the pixel sum.
		n := float64((float64(e.rng.Float64())*2 - 1) * half)
		v := float64(f.Pix[i]) + n
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		r.Pix[i] = uint8(v)
	}
}

// VideoDecoder reconstructs the viewer-visible frame sequence, freezing
// on loss until the next keyframe arrives.
type VideoDecoder struct {
	last    *recon
	needKey bool
}

// NewVideoDecoder returns a decoder with no reference frame.
func NewVideoDecoder() *VideoDecoder { return &VideoDecoder{needKey: true} }

// Show consumes the next frame slot as Decode does and returns the
// handle of the frame the viewer sees, without building its pixels.
// Every decoder shows the same handle for one coded frame, so freezes
// and shared frames compare by pointer.
func (d *VideoDecoder) Show(ef *EncodedFrame) *media.Frame {
	switch {
	case ef == nil:
		d.needKey = true // reference chain broken: freeze
	case ef.Skipped:
		// Encoder stalled: freeze, chain intact.
	case ef.Keyframe:
		d.needKey = false
		d.last = ef.recon
	case !d.needKey:
		d.last = ef.recon
	default:
		// Inter frame without a valid reference: keep freezing.
	}
	if d.last == nil {
		return nil
	}
	return d.last.handle()
}

// Decode consumes the next frame slot. ef == nil means the frame never
// arrived (lost or still missing at playout deadline); a Skipped frame
// means the encoder stalled. The return is what the viewer sees for this
// slot, built: possibly a repeat of the last good frame, or nil if
// nothing has ever been decodable.
func (d *VideoDecoder) Decode(ef *EncodedFrame) *media.Frame {
	if d.Show(ef) == nil {
		return nil
	}
	return d.last.build()
}
