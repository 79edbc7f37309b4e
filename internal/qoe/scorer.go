package qoe

import "github.com/vcabench/vcabench/internal/media"

// Scorer computes the per-frame video metrics of a session with
// memoization that never changes an output bit:
//
//   - a pair cache keyed by frame identity: decoders hand every receiver
//     the same reconstructed-frame pointer, so receivers that show the
//     same frame at a slot share one (ref, shown) pair — and metric
//     evaluation is a pure function of the two frames;
//   - a per-image stat cache (float image, Gaussian means, raw second
//     moments, the VIF pyramid): the one-image half of SSIM/VIFp, reused
//     when the same frame participates in several distinct pairs, as a
//     frozen frame does across slots.
//
// Both caches live for one CompareSession call. A frame's stats go back
// to the float-image pool right after the last slot that uses it, so the
// working set is the few frames live at one slot and the pool's buffers
// recycle from slot to slot and session to session; between calls the
// scorer holds only the pool and the kernels. A scorer built with
// NewScorerOn draws on its caller's Buffers, so the buffers also recycle
// from one scorer to the next on the same goroutine.
//
// Frames must not be mutated while they are scored (sources and codecs
// never do). A Scorer is single-goroutine, like the testbed that owns
// it; scorers running at the same time never share a Buffers.
type Scorer struct {
	pool  *Buffers
	stats map[*media.Frame]*imgStats // frames live in the current session
}

type pairKey struct{ ref, dist *media.Frame }

type pairScores struct{ psnr, ssim, vifp float64 }

// vifScale holds one VIF pyramid level: the scaled image and its
// Gaussian mean / raw second moment under that scale's kernel.
type vifScale struct{ x, mu, sxx *fimg }

type imgStats struct {
	base      *fimg // full-res float image; also the VIF scale-1 input
	ssimMu    *fimg
	ssimSxx   *fimg
	vif       [4]vifScale
	vifScales int
	vifDone   bool
	// denLog caches, per scale, the elementwise reference-side VIF
	// denominator log10(1 + vx/sigma^2) — a pure function of this
	// image's (mu, sxx), built lazily the first time the image is the
	// reference of a pair and reused for every later pair sharing it.
	denLog [4]*fimg
}

// NewScorer creates an empty scorer with a private buffer pool.
func NewScorer() *Scorer { return NewScorerOn(nil) }

// NewScorerOn creates an empty scorer that takes and returns its float
// buffers through b; nil means a private pool. Scorers may share b only
// on one goroutine: b must not reach another goroutine while this scorer
// may still run.
func NewScorerOn(b *Buffers) *Scorer {
	if b == nil {
		b = NewBuffers()
	}
	return &Scorer{pool: b, stats: make(map[*media.Frame]*imgStats)}
}

// statsEntry returns f's stat entry, taking an empty one from the pool
// on f's first use.
func (sc *Scorer) statsEntry(f *media.Frame) *imgStats {
	if st, ok := sc.stats[f]; ok {
		return st
	}
	var st *imgStats
	if n := len(sc.pool.stats); n > 0 {
		st = sc.pool.stats[n-1]
		sc.pool.stats = sc.pool.stats[:n-1]
		*st = imgStats{}
	} else {
		st = &imgStats{}
	}
	sc.stats[f] = st
	return st
}

// baseOf returns (building if needed) the frame's full-res float image.
func (sc *Scorer) baseOf(st *imgStats, f *media.Frame) *fimg {
	if st.base == nil {
		st.base = fromFrame(sc.pool, f)
	}
	return st.base
}

// ssimStats builds the one-image half of SSIM: Gaussian mean and raw
// second moment under the 11x11 window.
func (sc *Scorer) ssimStats(f *media.Frame) *imgStats {
	st := sc.statsEntry(f)
	if st.ssimMu == nil {
		x := sc.baseOf(st, f)
		st.ssimMu = convValid(sc.pool, x, ssimKernel)
		xx := mul(sc.pool, x, x)
		st.ssimSxx = convValid(sc.pool, xx, ssimKernel)
		sc.pool.put(xx)
	}
	return st
}

// vifStats builds the one-image half of VIFp: the four-scale pyramid
// with each level's mean and raw second moment.
func (sc *Scorer) vifStats(f *media.Frame) *imgStats {
	st := sc.statsEntry(f)
	if st.vifDone {
		return st
	}
	st.vifDone = true
	cur := sc.baseOf(st, f)
	for scale := 1; scale <= 4; scale++ {
		n := 1<<(5-scale) + 1
		k := vifKernels[scale-1]
		if scale > 1 {
			c := convValid(sc.pool, cur, k)
			next := downsample2(sc.pool, c)
			sc.pool.put(c)
			cur = next
			if cur.w < n || cur.h < n {
				sc.pool.put(cur)
				break
			}
		}
		xx := mul(sc.pool, cur, cur)
		st.vif[scale-1] = vifScale{
			x:   cur,
			mu:  convValid(sc.pool, cur, k),
			sxx: convValid(sc.pool, xx, k),
		}
		sc.pool.put(xx)
		st.vifScales = scale
	}
	return st
}

// denLogFor returns (building on first use) the cached reference-side
// VIF denominator logs for one pyramid scale of st:
// log10(1 + max(0, sxx-mu^2)/sigma^2), elementwise. It writes the
// arguments into the cache buffer, then takes their logs in place with
// log10Vec.
func (sc *Scorer) denLogFor(st *imgStats, s int) *fimg {
	if st.denLog[s] == nil {
		v := &st.vif[s]
		dl := sc.pool.get(v.mu.w, v.mu.h)
		mu, sxx := v.mu.v, v.sxx.v
		for i := range dl.v {
			mx := mu[i]
			vx := sxx[i] - float64(mx*mx)
			if vx < 0 {
				vx = 0
			}
			dl.v[i] = 1 + float64(vx/vifSigmaNsq)
		}
		log10Vec(dl.v, dl.v)
		st.denLog[s] = dl
	}
	return st.denLog[s]
}

// retire returns f's stats and their entry to the pool when slot is
// the last one that uses f. A frame seen twice in one slot is released
// once.
func (sc *Scorer) retire(f *media.Frame, lastUse map[*media.Frame]int, slot int) {
	if lastUse[f] != slot {
		return
	}
	st, ok := sc.stats[f]
	if !ok {
		return
	}
	delete(sc.stats, f)
	sc.pool.put(st.base)
	sc.pool.put(st.ssimMu)
	sc.pool.put(st.ssimSxx)
	for s := 0; s < st.vifScales; s++ {
		if s > 0 { // vif[0].x is base, already released
			sc.pool.put(st.vif[s].x)
		}
		sc.pool.put(st.vif[s].mu)
		sc.pool.put(st.vif[s].sxx)
		sc.pool.put(st.denLog[s]) // put ignores nil
	}
	sc.pool.stats = append(sc.pool.stats, st)
}
