package qoe

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/vcabench/vcabench/internal/media"
)

// sessionFixture builds one session whose receivers exercise every
// frame-identity pattern the scorer's caches and retirement key on:
//
//   - receivers 0 and 1 show the same decoded pointers (one decoder
//     output shared across receivers);
//   - receiver 1 shows nothing for its first slots, then freezes on one
//     frame for a run of slots;
//   - receiver 2 shows the reference itself at some slots, and a later
//     slot's reference at others (shown frames that are also reference
//     frames), lags one slot behind the shared decoded pointers
//     elsewhere, and has a nil slot mid-session;
//   - every fourth reference slot repeats the previous slot's pointer.
//
// Pixels depend on seed; the identity pattern does not.
func sessionFixture(seed int64, slots int) (ref []*media.Frame, displayed [][]*media.Frame) {
	src := media.NewSource(media.HighMotion, media.QuickProfile, seed)
	for i := 0; i < slots; i++ {
		f := src.Next()
		if i%4 == 3 {
			f = ref[i-1]
		}
		ref = append(ref, f)
	}
	decoded := make([]*media.Frame, slots)
	for i := range decoded {
		decoded[i] = noisy(ref[i], 6, seed*1000+int64(i))
	}
	r0 := append([]*media.Frame(nil), decoded...)
	r1 := make([]*media.Frame, slots)
	r2 := make([]*media.Frame, slots)
	for i := 0; i < slots; i++ {
		switch {
		case i < 2:
		case i >= 5 && i <= 8:
			r1[i] = decoded[4]
		default:
			r1[i] = decoded[i]
		}
		switch {
		case i%3 == 0:
			r2[i] = ref[i]
		case i%5 == 1 && i+1 < slots:
			r2[i] = ref[i+1]
		case i == 7:
		default:
			r2[i] = decoded[i-1]
		}
	}
	return ref, [][]*media.Frame{r0, r1, r2}
}

// compareUncached is the cache-free reference for one receiver: the
// package-level metrics on every sampled pair, summed in slot order.
func compareUncached(ref, displayed []*media.Frame, stride int) VideoResult {
	var res VideoResult
	freezes := 0
	var prev *media.Frame
	for i := range ref {
		shown := displayed[i]
		if shown == prev || shown == nil {
			freezes++
		}
		prev = shown
		if i%stride != 0 {
			continue
		}
		if shown == nil {
			shown = media.NewFrame(ref[i].W, ref[i].H)
		}
		res.PSNR += PSNR(ref[i], shown)
		res.SSIM += SSIM(ref[i], shown)
		res.VIFP += VIFP(ref[i], shown)
		res.Frames++
	}
	if res.Frames > 0 {
		res.PSNR /= float64(res.Frames)
		res.SSIM /= float64(res.Frames)
		res.VIFP /= float64(res.Frames)
	}
	res.FreezeRatio = float64(freezes) / float64(len(ref))
	return res
}

func sameBits(a, b VideoResult) bool {
	return a.Frames == b.Frames &&
		math.Float64bits(a.PSNR) == math.Float64bits(b.PSNR) &&
		math.Float64bits(a.SSIM) == math.Float64bits(b.SSIM) &&
		math.Float64bits(a.VIFP) == math.Float64bits(b.VIFP) &&
		math.Float64bits(a.FreezeRatio) == math.Float64bits(b.FreezeRatio)
}

// TestCompareSessionBitIdentical scores one session at strides 1-5 with
// three, one and zero receivers on a single reused scorer (so pooled
// buffers come back dirty) and demands exact bit equality with the
// cache-free reference for every receiver.
func TestCompareSessionBitIdentical(t *testing.T) {
	ref, displayed := sessionFixture(3, 13)
	sc := NewScorer()
	for stride := 1; stride <= 5; stride++ {
		want := make([]VideoResult, len(displayed))
		for r := range displayed {
			want[r] = compareUncached(ref, displayed[r], stride)
		}
		for _, recv := range [][][]*media.Frame{displayed, displayed[:1], nil} {
			got := sc.CompareSession(ref, recv, stride)
			if len(got) != len(recv) {
				t.Fatalf("stride %d, %d receivers: %d results", stride, len(recv), len(got))
			}
			for r := range got {
				if !sameBits(got[r], want[r]) {
					t.Errorf("stride %d, %d receivers, receiver %d:\n got %+v\nwant %+v",
						stride, len(recv), r, got[r], want[r])
				}
			}
		}
		if got := sc.CompareVideo(ref, displayed[2], stride); !sameBits(got, want[2]) {
			t.Errorf("stride %d CompareVideo:\n got %+v\nwant %+v", stride, got, want[2])
		}
	}
}

// pooledBuffers counts the float-image buffers parked in the pool.
func pooledBuffers(p *Buffers) int {
	n := 0
	for _, bucket := range p.free {
		n += len(bucket)
	}
	return n
}

// TestCompareSessionRecyclesPool pins the working-set contract: a
// finished session leaves no per-image stats behind and every buffer it
// took back in the pool, so a second session of the same geometry and
// identity pattern is served entirely from those buffers.
func TestCompareSessionRecyclesPool(t *testing.T) {
	sc := NewScorer()
	ref, displayed := sessionFixture(3, 13)
	sc.CompareSession(ref, displayed, 1)
	if len(sc.stats) != 0 {
		t.Fatalf("scorer holds stats for %d frames after the session", len(sc.stats))
	}
	first := pooledBuffers(sc.pool)
	if first == 0 {
		t.Fatal("no buffers returned to the pool")
	}
	ref, displayed = sessionFixture(4, 13)
	sc.CompareSession(ref, displayed, 1)
	if len(sc.stats) != 0 {
		t.Fatalf("scorer holds stats for %d frames after the second session", len(sc.stats))
	}
	if n := pooledBuffers(sc.pool); n != first {
		t.Errorf("second session allocated %d new float buffers; want every one from the pool", n-first)
	}
}

// TestCompareSessionPanicsOnUnbuiltFrame scores a frame without pixels,
// as a decoder handle whose reconstruction was never built has. The
// scorer must refuse it, on either side of a pair, instead of reading a
// short image.
func TestCompareSessionPanicsOnUnbuiltFrame(t *testing.T) {
	ref := media.NewSource(media.HighMotion, media.QuickProfile, 3).Next()
	for _, c := range []struct {
		name string
		pix  []uint8
	}{
		{"nil", nil},
		{"short", make([]uint8, len(ref.Pix)/2)},
	} {
		unbuilt := &media.Frame{W: ref.W, H: ref.H, Pix: c.pix}
		for _, pair := range [][2]*media.Frame{{ref, unbuilt}, {unbuilt, ref}} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				NewScorer().CompareSession([]*media.Frame{pair[0]}, [][]*media.Frame{{pair[1]}}, 1)
				return ""
			}()
			if !strings.Contains(msg, "never built") {
				t.Errorf("%s pixels: CompareSession panic = %q, want one naming an unbuilt frame", c.name, msg)
			}
		}
	}
}

// poolBytes sums the float-image bytes parked in the pool.
func poolBytes(p *Buffers) int {
	n := 0
	for _, bucket := range p.free {
		for _, im := range bucket {
			n += 8 * cap(im.v)
		}
	}
	return n
}

// unrelatedSession is a session of mixed geometry: a few QuickProfile
// slots of other content, then 64x48 slots, then one 10x8 slot, under
// the SSIM window, which falls back to global SSIM and builds no VIF
// pyramid.
func unrelatedSession() (ref []*media.Frame, displayed [][]*media.Frame) {
	ref, displayed = sessionFixture(9, 6)
	small := media.NewSource(media.LowMotion, media.Profile{W: 64, H: 48, FPS: 10}, 9)
	for i := 0; i < 4; i++ {
		ref = append(ref, small.Next())
	}
	tiny := media.NewSource(media.HighMotion, media.Profile{W: 10, H: 8, FPS: 10}, 9)
	ref = append(ref, tiny.Next())
	for r := range displayed {
		for i := len(displayed[r]); i < len(ref); i++ {
			displayed[r] = append(displayed[r], noisy(ref[i], 9, int64(100*r+i)))
		}
	}
	return ref, displayed
}

// TestReusedBuffersCannotChangeResults pins the contract buffer reuse
// across scorers rests on: every producer writes each element before
// reading it. Session A is scored on a fresh scorer; then, on one shared
// Buffers, an unrelated session of other geometries is scored, every
// parked buffer is filled with NaN, every parked stat entry is made to
// claim finished stats held in a NaN image, and A is scored again by a
// new scorer on those buffers. A NaN read anywhere would poison a sum.
func TestReusedBuffersCannotChangeResults(t *testing.T) {
	ref, displayed := sessionFixture(3, 13)
	want := NewScorer().CompareSession(ref, displayed, 2)

	b := NewBuffers()
	bref, bshown := unrelatedSession()
	NewScorerOn(b).CompareSession(bref, bshown, 1)
	n := 0
	for _, bucket := range b.free {
		for _, im := range bucket {
			for i := range im.v {
				im.v[i] = math.NaN()
			}
			n++
		}
	}
	if len(b.free[ref[0].W*ref[0].H]) == 0 {
		t.Fatalf("no %dx%d buffers parked after the unrelated session; the rerun would not reuse any", ref[0].W, ref[0].H)
	}
	if len(b.stats) == 0 {
		t.Fatal("no stat entries parked after the unrelated session; the rerun would not reuse any")
	}
	junk := &fimg{w: 1, h: 1, v: []float64{math.NaN()}}
	for _, st := range b.stats {
		*st = imgStats{base: junk, ssimMu: junk, ssimSxx: junk, vifScales: 4, vifDone: true}
		for s := range st.vif {
			st.vif[s] = vifScale{junk, junk, junk}
			st.denLog[s] = junk
		}
	}
	got := NewScorerOn(b).CompareSession(ref, displayed, 2)
	for r := range want {
		if !sameBits(got[r], want[r]) {
			t.Errorf("receiver %d after reusing %d NaN-filled buffers:\n got %+v\nwant %+v", r, n, got[r], want[r])
		}
	}
}

// TestWarmBuffersAllocateLittle is the cell-to-cell handoff a scheduler
// worker makes: a second scorer of the same geometry on warm Buffers
// must allocate under a tenth of the float-buffer bytes the first
// scorer allocated, and park no new buffers.
func TestWarmBuffersAllocateLittle(t *testing.T) {
	b := NewBuffers()
	ref, displayed := sessionFixture(3, 13)
	NewScorerOn(b).CompareSession(ref, displayed, 1)
	first := poolBytes(b)
	if first == 0 {
		t.Fatal("first scorer returned no buffers")
	}
	ref, displayed = sessionFixture(4, 13)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	NewScorerOn(b).CompareSession(ref, displayed, 1)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(first/10) {
		t.Errorf("second scorer allocated %d bytes on warm buffers, want under %d (a tenth of the first's %d float-buffer bytes)",
			got, first/10, first)
	}
	if n := poolBytes(b); n != first {
		t.Errorf("pool grew from %d to %d bytes on the second scorer", first, n)
	}
}
