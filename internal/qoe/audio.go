package qoe

import (
	"math"
	"math/cmplx"

	"github.com/vcabench/vcabench/internal/media"
)

// The audio quality estimator follows the structure of ViSQOL: both clips
// are turned into band-energy spectrograms, a neurogram similarity (NSIM)
// is computed between aligned spectrogram frames, and the mean similarity
// is mapped onto the MOS-LQO scale (1 worst .. 5 best). It is not a
// bit-exact ViSQOL, but it is monotone under the same degradations the
// paper induced: packet loss, concealment artifacts and coding noise.

const (
	specWindow = 512 // 32 ms at 16 kHz
	specHop    = 256
	specBands  = 16
	specFloor  = -60 // dB floor
)

// fft computes an in-place radix-2 FFT. len(x) must be a power of two.
func fft(x []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit reversal.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := cmul(x[i+j+length/2], w)
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w = cmul(w, wl)
			}
		}
	}
}

// cmul is x*y as Go computes a complex128 product, with each of its
// four real products rounded on its own so arm64 cannot fuse one into
// the add or subtract that follows.
func cmul(x, y complex128) complex128 {
	return complex(float64(real(x)*real(y))-float64(imag(x)*imag(y)),
		float64(real(x)*imag(y))+float64(imag(x)*real(y)))
}

// spectrogram returns band-energy frames in dB, clamped to specFloor.
// Bands are log-spaced between 100 Hz and 7 kHz.
func spectrogram(c *media.AudioClip) [][]float64 {
	if len(c.Samples) < specWindow {
		return nil
	}
	// Precompute band bin ranges.
	fLo, fHi := 100.0, 7000.0
	if max := float64(c.Rate) / 2; fHi > max {
		fHi = max * 0.95
	}
	edges := make([]float64, specBands+1)
	for i := range edges {
		edges[i] = fLo * math.Pow(fHi/fLo, float64(i)/float64(specBands))
	}
	binHz := float64(c.Rate) / specWindow
	hann := make([]float64, specWindow)
	for i := range hann {
		hann[i] = 0.5 - float64(0.5*math.Cos(2*math.Pi*float64(i)/float64(specWindow-1)))
	}
	var out [][]float64
	buf := make([]complex128, specWindow)
	for off := 0; off+specWindow <= len(c.Samples); off += specHop {
		for i := 0; i < specWindow; i++ {
			buf[i] = complex(c.Samples[off+i]*hann[i], 0)
		}
		fft(buf)
		bands := make([]float64, specBands)
		for b := 0; b < specBands; b++ {
			lo := int(edges[b] / binHz)
			hi := int(edges[b+1] / binHz)
			if hi <= lo {
				hi = lo + 1
			}
			var e float64
			for k := lo; k < hi && k < specWindow/2; k++ {
				e += float64(real(buf[k])*real(buf[k])) + float64(imag(buf[k])*imag(buf[k]))
			}
			db := float64(specFloor)
			if e > 0 {
				db = 10 * log10(e)
				if db < specFloor {
					db = specFloor
				}
			}
			bands[b] = db
		}
		out = append(out, bands)
	}
	return out
}

// dynamicRange is the scored dynamic range below the reference's peak
// band energy. Content below it — including inaudible coding noise — is
// clamped to the floor, mirroring how ViSQOL's perceptual front end
// ignores sub-threshold energy.
const dynamicRange = 50.0

// nsim computes the mean neurogram similarity between two spectrograms,
// in [0, 1]. Both are clamped to a floor dynamicRange dB below the
// reference peak, and only reference-active frames are scored (ViSQOL
// likewise scores only active patches).
func nsim(ref, deg [][]float64) float64 {
	n := len(ref)
	if len(deg) < n {
		n = len(deg)
	}
	if n == 0 {
		return 0
	}
	peak := math.Inf(-1)
	for t := 0; t < n; t++ {
		for b := 0; b < specBands; b++ {
			if ref[t][b] > peak {
				peak = ref[t][b]
			}
		}
	}
	floor := peak - dynamicRange
	clamp := func(v float64) float64 {
		if v < floor {
			return floor
		}
		return v
	}
	activity := floor + 0.3*dynamicRange
	const c1 = 1.0
	const c2 = 5.0
	var sum float64
	var cnt int
	for t := 0; t < n; t++ {
		var level float64
		for b := 0; b < specBands; b++ {
			level += clamp(ref[t][b])
		}
		if level/specBands < activity {
			continue // reference is (near-)silent here
		}
		for b := 0; b < specBands; b++ {
			r := clamp(ref[t][b]) - floor // in [0, dynamicRange]
			d := clamp(deg[t][b]) - floor
			// Luminance-style similarity on band energies plus a local
			// structure term across the band axis.
			lum := (float64(2*r*d) + c1) / (float64(r*r) + float64(d*d) + c1)
			var sr, sd float64
			if b > 0 {
				sr = clamp(ref[t][b]) - clamp(ref[t][b-1])
				sd = clamp(deg[t][b]) - clamp(deg[t][b-1])
			}
			str := (float64(2*sr*sd) + c2) / (float64(sr*sr) + float64(sd*sd) + c2)
			sum += float64(lum * str)
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	v := sum / float64(cnt)
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v
}

// MOSLQO estimates the listening-quality MOS (1..5) of a degraded clip
// against its reference. The clips must be time-aligned; the simulator
// aligns them by construction, since a client's recording decodes the
// received audio frame for frame against the sender's reference clip.
func MOSLQO(ref, deg *media.AudioClip) float64 {
	sr := spectrogram(ref)
	sd := spectrogram(deg)
	if len(sr) == 0 || len(sd) == 0 {
		return 1
	}
	s := nsim(sr, sd)
	// Map similarity to the MOS scale. The exponent sharpens the top of
	// the scale so that transparent coding lands near 4.2-4.8 and heavy
	// degradation falls quickly below 3.
	mos := 1 + float64(4*math.Pow(s, 4))
	if mos > 5 {
		mos = 5
	}
	if mos < 1 {
		mos = 1
	}
	return mos
}
