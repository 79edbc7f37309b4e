package qoe

import (
	"fmt"

	"github.com/vcabench/vcabench/internal/media"
)

// PSNRCap bounds PSNR for identical images so that averaging over frames
// stays finite (the common convention in quality tooling).
const PSNRCap = 60.0

// PSNR returns the peak signal-to-noise ratio in dB between two frames of
// identical geometry.
func PSNR(ref, dist *media.Frame) float64 {
	mustMatch(ref, dist)
	var se float64
	for i := range ref.Pix {
		d := float64(ref.Pix[i]) - float64(dist.Pix[i])
		se += float64(d * d)
	}
	mse := se / float64(len(ref.Pix))
	if mse == 0 {
		return PSNRCap
	}
	v := 10 * log10(255*255/mse)
	if v > PSNRCap {
		v = PSNRCap
	}
	return v
}

// SSIM constants (Wang et al. 2004): 11x11 Gaussian window, sigma 1.5.
const (
	ssimWindow = 11
	ssimSigma  = 1.5
	ssimK1     = 0.01
	ssimK2     = 0.03
	ssimL      = 255
)

// SSIM returns the mean structural similarity index between two frames.
// The result is in [-1, 1]; 1 means identical.
func SSIM(ref, dist *media.Frame) float64 {
	return NewScorer().ssimPair(ref, dist)
}

// ssimPair is SSIM against the scorer's per-image stat cache. Only the
// cross term (the Gaussian-windowed product image) is pair-specific.
func (sc *Scorer) ssimPair(ref, dist *media.Frame) float64 {
	mustMatch(ref, dist)
	if ref.W < ssimWindow || ref.H < ssimWindow {
		// Degenerate tiny frames: fall back to a global SSIM.
		return globalSSIM(ref, dist)
	}
	sx := sc.ssimStats(ref)
	sy := sc.ssimStats(dist)
	xy := mul(sc.pool, sx.base, sy.base)
	sxy := convValid(sc.pool, xy, ssimKernel)
	sc.pool.put(xy)

	c1 := (ssimK1 * ssimL) * (ssimK1 * ssimL)
	c2 := (ssimK2 * ssimL) * (ssimK2 * ssimL)
	mux, muy := sx.ssimMu.v, sy.ssimMu.v
	sxxv, syyv := sx.ssimSxx.v, sy.ssimSxx.v
	var sum float64
	for i := range mux {
		mx, my := mux[i], muy[i]
		vx := sxxv[i] - float64(mx*mx)
		vy := syyv[i] - float64(my*my)
		cxy := sxy.v[i] - float64(mx*my)
		sum += ((float64(2*mx*my) + c1) * (2*cxy + c2)) /
			((float64(mx*mx) + float64(my*my) + c1) * (vx + vy + c2))
	}
	sc.pool.put(sxy)
	return sum / float64(len(mux))
}

func globalSSIM(ref, dist *media.Frame) float64 {
	var mx, my float64
	n := float64(len(ref.Pix))
	for i := range ref.Pix {
		mx += float64(ref.Pix[i])
		my += float64(dist.Pix[i])
	}
	mx /= n
	my /= n
	var vx, vy, cxy float64
	for i := range ref.Pix {
		dx := float64(ref.Pix[i]) - mx
		dy := float64(dist.Pix[i]) - my
		vx += float64(dx * dx)
		vy += float64(dy * dy)
		cxy += float64(dx * dy)
	}
	vx /= n
	vy /= n
	cxy /= n
	c1 := (ssimK1 * ssimL) * (ssimK1 * ssimL)
	c2 := (ssimK2 * ssimL) * (ssimK2 * ssimL)
	return ((float64(2*mx*my) + c1) * (2*cxy + c2)) / ((float64(mx*mx) + float64(my*my) + c1) * (vx + vy + c2))
}

// vifSigmaNsq is the visual noise variance of the VIF model.
const vifSigmaNsq = 2.0

// VIFP returns the pixel-domain Visual Information Fidelity between two
// frames, following the published four-scale pixel-domain approximation.
// 1 means identical; heavier distortion drives it toward 0.
func VIFP(ref, dist *media.Frame) float64 {
	return NewScorer().vifPair(ref, dist)
}

// vifPair is VIFp against the scorer's cached pyramids. Per pair only
// the cross term and the information-sum loop remain.
func (sc *Scorer) vifPair(ref, dist *media.Frame) float64 {
	mustMatch(ref, dist)
	sx := sc.vifStats(ref)
	sy := sc.vifStats(dist)
	scales := sx.vifScales
	if sy.vifScales < scales {
		// Pyramid depth depends only on geometry, which mustMatch pinned
		// equal — but stay defensive.
		scales = sy.vifScales
	}
	var num, den float64
	for s := 0; s < scales; s++ {
		vx0, vy0 := &sx.vif[s], &sy.vif[s]
		xy := mul(sc.pool, vx0.x, vy0.x)
		sxy := convValid(sc.pool, xy, vifKernels[s])
		sc.pool.put(xy)
		mux, muy := vx0.mu.v, vy0.mu.v
		sxxv, syyv := vx0.sxx.v, vy0.sxx.v
		// The denominator term is a pure function of the reference side,
		// so its per-element logs are cached on sx and summed here in the
		// same element order the inline computation used — identical
		// values added in identical order, hence identical bits.
		dlv := sc.denLogFor(sx, s).v
		// Each element's numerator argument replaces its cross term once
		// read, and log10Vec then takes the logs of the whole buffer. num
		// and den add their terms in element order, as a loop taking each
		// log in turn would, so batching the logs moves no bit.
		arg := sxy.v[:len(mux)]
		const eps = 1e-10
		for i := range mux {
			mx, my := mux[i], muy[i]
			vx := sxxv[i] - float64(mx*mx)
			vy := syyv[i] - float64(my*my)
			cxy := arg[i] - float64(mx*my)
			if vx < 0 {
				vx = 0
			}
			if vy < 0 {
				vy = 0
			}
			g := cxy / (vx + eps)
			svsq := vy - float64(g*cxy)
			if vx < eps {
				g = 0
				svsq = vy
			}
			if vy < eps {
				g = 0
				svsq = 0
			}
			if g < 0 {
				svsq = vy
				g = 0
			}
			if svsq < eps {
				svsq = eps
			}
			arg[i] = 1 + g*g*vx/(svsq+vifSigmaNsq)
		}
		log10Vec(arg, arg)
		for i, l := range arg {
			num += l
			den += dlv[i]
		}
		sc.pool.put(sxy)
	}
	if den == 0 {
		return 1
	}
	v := num / den
	if v > 1 {
		v = 1
	}
	if v < 0 {
		v = 0
	}
	return v
}

// VideoResult aggregates the three metrics over a frame sequence.
type VideoResult struct {
	PSNR, SSIM, VIFP float64
	Frames           int
	// FreezeRatio is the fraction of display slots that repeated the
	// previous slot's frame or showed nothing. (The first appearance of a
	// stale frame is indistinguishable from fresh content without ground
	// truth, so a permanent freeze over n slots scores (n-1)/n.)
	FreezeRatio float64
}

func (r VideoResult) String() string {
	return fmt.Sprintf("PSNR=%.2fdB SSIM=%.4f VIFp=%.4f (n=%d, freeze=%.1f%%)",
		r.PSNR, r.SSIM, r.VIFP, r.Frames, r.FreezeRatio*100)
}

// CompareVideo is CompareSession with one receiver.
func (sc *Scorer) CompareVideo(ref, displayed []*media.Frame, stride int) VideoResult {
	return sc.CompareSession(ref, [][]*media.Frame{displayed}, stride)[0]
}

// CompareSession scores every receiver's displayed sequence against the
// session's one reference, returning one result per receiver in order.
// ref and each displayed[r] index display slots; displayed[r][i] == nil
// means nothing was ever shown for that slot (scored as a black frame,
// matching how recordings of a dead stream score). stride samples every
// stride-th slot for speed (1 = every frame).
//
// Scoring is slot-major: at each sampled slot every receiver's pair is
// scored, and each frame's cached stats are released as soon as the
// last slot using it — as reference or as shown frame — is done. Each
// receiver's sums still add its own pairs in slot order, and every pair
// is a pure function of its two frames, so the results are bit-identical
// to scoring each receiver alone.
func (sc *Scorer) CompareSession(ref []*media.Frame, displayed [][]*media.Frame, stride int) []VideoResult {
	for _, d := range displayed {
		if len(ref) != len(d) {
			panic(fmt.Sprintf("qoe: sequence lengths differ: %d vs %d", len(ref), len(d)))
		}
	}
	if stride < 1 {
		stride = 1
	}
	// Never-shown slots score against an all-black frame, one per
	// geometry, so its pairs and stats are cached like any frame's.
	blacks := make(map[[2]int]*media.Frame)
	shownAt := func(r, i int) *media.Frame {
		if f := displayed[r][i]; f != nil {
			return f
		}
		key := [2]int{ref[i].W, ref[i].H}
		f, ok := blacks[key]
		if !ok {
			f = media.NewFrame(ref[i].W, ref[i].H)
			blacks[key] = f
		}
		return f
	}
	lastUse := make(map[*media.Frame]int)
	for i := 0; i < len(ref); i += stride {
		lastUse[ref[i]] = i
		for r := range displayed {
			lastUse[shownAt(r, i)] = i
		}
	}

	res := make([]VideoResult, len(displayed))
	pairs := make(map[pairKey]pairScores)
	for i := 0; i < len(ref); i += stride {
		for r := range displayed {
			shown := shownAt(r, i)
			key := pairKey{ref[i], shown}
			ps, ok := pairs[key]
			if !ok {
				ps = pairScores{
					psnr: PSNR(ref[i], shown),
					ssim: sc.ssimPair(ref[i], shown),
					vifp: sc.vifPair(ref[i], shown),
				}
				pairs[key] = ps
			}
			res[r].PSNR += ps.psnr
			res[r].SSIM += ps.ssim
			res[r].VIFP += ps.vifp
			res[r].Frames++
		}
		sc.retire(ref[i], lastUse, i)
		for r := range displayed {
			sc.retire(shownAt(r, i), lastUse, i)
		}
	}

	for r, d := range displayed {
		freezes := 0
		var prevShown *media.Frame
		for _, shown := range d {
			if shown == prevShown || shown == nil {
				freezes++
			}
			prevShown = shown
		}
		if n := res[r].Frames; n > 0 {
			res[r].PSNR /= float64(n)
			res[r].SSIM /= float64(n)
			res[r].VIFP /= float64(n)
		}
		if len(ref) > 0 {
			res[r].FreezeRatio = float64(freezes) / float64(len(ref))
		}
	}
	return res
}

// mustMatch panics unless a and b are scorable against each other: the
// same geometry, and every pixel present. A decoder handle whose
// reconstruction was never built has nil Pix; scoring it would read a
// short image.
func mustMatch(a, b *media.Frame) {
	if a.W != b.W || a.H != b.H {
		panic(fmt.Sprintf("qoe: frame geometry mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H))
	}
	for _, f := range [2]*media.Frame{a, b} {
		if len(f.Pix) != f.W*f.H {
			panic(fmt.Sprintf("qoe: %dx%d frame has %d of %d pixels: it was never built",
				f.W, f.H, len(f.Pix), f.W*f.H))
		}
	}
}
