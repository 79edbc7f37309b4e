// Package qoe implements the objective quality metrics the paper computes
// with VQMT and ViSQOL: PSNR, SSIM (Wang et al. 2004) and pixel-domain
// VIF (Sheikh & Bovik 2006) for video, and a spectrogram-similarity
// MOS-LQO estimator for audio, plus the temporal alignment used to
// synchronize recordings with the injected originals.
package qoe

import (
	"math"

	"github.com/vcabench/vcabench/internal/media"
)

// fimg is a float64 grayscale image used by the metric pipelines.
type fimg struct {
	w, h int
	v    []float64
}

func newFimg(w, h int) *fimg { return &fimg{w: w, h: h, v: make([]float64, w*h)} }

// Buffers recycles the scorer's float-image buffers by exact pixel
// count. The metric pipelines churn through large intermediates (the
// dominant allocation source of a cold campaign cell). A Buffers has one
// owner on one goroutine at a time, so reuse order is deterministic; it
// may outlive a Scorer and pass to the next one on the same goroutine
// (NewScorerOn), as a scheduler worker does from cell to cell. It is not
// safe for concurrent use. Buffers come back dirty — every producer
// below writes each output element before it is read, so no zeroing
// pass is needed, and a buffer's history cannot reach a result. The
// scorer's per-frame stat entries recycle through it too, zeroed when
// taken.
type Buffers struct {
	free  map[int][]*fimg
	stats []*imgStats
}

// NewBuffers returns an empty buffer pool.
func NewBuffers() *Buffers { return &Buffers{free: make(map[int][]*fimg)} }

func (p *Buffers) get(w, h int) *fimg {
	n := w * h
	if bucket := p.free[n]; len(bucket) > 0 {
		im := bucket[len(bucket)-1]
		p.free[n] = bucket[:len(bucket)-1]
		im.w, im.h = w, h
		return im
	}
	return &fimg{w: w, h: h, v: make([]float64, n)}
}

func (p *Buffers) put(im *fimg) {
	if im == nil || len(im.v) == 0 {
		return
	}
	n := len(im.v)
	p.free[n] = append(p.free[n], im)
}

func fromFrame(p *Buffers, f *media.Frame) *fimg {
	im := p.get(f.W, f.H)
	for i, px := range f.Pix {
		im.v[i] = float64(px)
	}
	return im
}

func (im *fimg) at(x, y int) float64 { return im.v[y*im.w+x] }

// ssimKernel and vifKernels are the metrics' normalized 1-D Gaussian
// windows: SSIM's 11 taps at sigma 1.5, and VIF's n taps at sigma n/5
// for n = 17, 9, 5, 3 (scales 1 to 4). Each tap is pinned to the
// IEEE-754 bits amd64 computes for gaussianKernel(n, sigma) (see the
// tests), because math.Exp has a different form on every architecture:
// 386's pure-Go Exp puts SSIM taps 1 and 9 one ULP below amd64's, which
// moved SSIM results. The tables are shared and never written.
var (
	ssimKernel = kernelBits(
		0x3f50d956b52a1d70, 0x3f7f1fe01ae5a5b9, 0x3fa26eb175d83f67, 0x3fbbff0fe8e98418,
		0x3fcb43c3f52b19f2, 0x3fd106560aa892c0, 0x3fcb43c3f52b19f2, 0x3fbbff0fe8e98418,
		0x3fa26eb175d83f67, 0x3f7f1fe01ae5a5b9, 0x3f50d956b52a1d70)
	vifKernels = [4][]float64{
		kernelBits(
			0x3f7e8a76f14c14a8, 0x3f8d373b107d5119, 0x3f99a1cf6439f192, 0x3fa49fd9d6934fef,
			0x3fae7092ed89903a, 0x3fb49a0435d9c376, 0x3fb99350e000ae4e, 0x3fbd1e76a1a46853,
			0x3fbe67f6787f9c0f, 0x3fbd1e76a1a46853, 0x3fb99350e000ae4e, 0x3fb49a0435d9c376,
			0x3fae7092ed89903a, 0x3fa49fd9d6934fef, 0x3f99a1cf6439f192, 0x3f8d373b107d5119,
			0x3f7e8a76f14c14a8),
		kernelBits(
			0x3f936efd9edf1ab6, 0x3fac9eaf7f1d2a0e, 0x3fbef4ac287de82e, 0x3fc897423f6a4719,
			0x3fccb1b831672df2, 0x3fc897423f6a4719, 0x3fbef4ac287de82e, 0x3fac9eaf7f1d2a0e,
			0x3f936efd9edf1ab6),
		kernelBits(
			0x3fabe5f0dc491a0e, 0x3fcf41fd54c58785, 0x3fd9c486742831f6, 0x3fcf41fd54c58785,
			0x3fabe5f0dc491a0e),
		kernelBits(0x3fc54be41ad3d747, 0x3fe55a0df296145d, 0x3fc54be41ad3d747),
	}
)

func kernelBits(bits ...uint64) []float64 {
	k := make([]float64, len(bits))
	for i, b := range bits {
		k[i] = math.Float64frombits(b)
	}
	return k
}

// convValid applies a separable kernel and returns only the fully-covered
// region, shrinking the image by len(k)-1 in each dimension.
//
// Both passes run through convTaps: per output element the tap products
// are added in ascending tap order — exactly the order of the classic
// tap-inner loop — and float64 partials round identically whether they
// live in a register or a slice slot, so the result is bit-identical to
// the naive form. The horizontal pass reads taps at stride 1, the
// vertical pass at stride outW (consecutive rows of the intermediate),
// both streaming memory sequentially and writing each output exactly
// once. The kernels are elementwise with separate multiply and add
// (never FMA), preserving bit identity at any SIMD width.
func convValid(p *Buffers, im *fimg, k []float64) *fimg {
	n := len(k)
	outW := im.w - n + 1
	outH := im.h - n + 1
	if outW <= 0 || outH <= 0 {
		return newFimg(0, 0)
	}
	// Horizontal pass.
	tmp := p.get(outW, im.h)
	for y := 0; y < im.h; y++ {
		convTaps(tmp.v[y*outW:(y+1)*outW], im.v[y*im.w:], k, 1)
	}
	// Vertical pass.
	out := p.get(outW, outH)
	for y := 0; y < outH; y++ {
		convTaps(out.v[y*outW:(y+1)*outW], tmp.v[y*outW:], k, outW)
	}
	p.put(tmp)
	return out
}

// mul returns the element-wise product of two same-sized images.
func mul(p *Buffers, a, b *fimg) *fimg {
	out := p.get(a.w, a.h)
	mulVec(out.v, a.v, b.v)
	return out
}

// downsample2 halves the image by 2x2 averaging.
func downsample2(p *Buffers, im *fimg) *fimg {
	w, h := im.w/2, im.h/2
	if w == 0 || h == 0 {
		return newFimg(0, 0)
	}
	out := p.get(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s := im.at(2*x, 2*y) + im.at(2*x+1, 2*y) +
				im.at(2*x, 2*y+1) + im.at(2*x+1, 2*y+1)
			out.v[y*w+x] = s / 4
		}
	}
	return out
}
