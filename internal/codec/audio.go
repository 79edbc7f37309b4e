package codec

import (
	"math"
	"math/rand"

	"github.com/vcabench/vcabench/internal/media"
)

// AudioFrameDur is the codec frame duration in seconds (Opus-style 20 ms).
const AudioFrameDur = 0.020

// AudioFrame is one coded audio frame.
type AudioFrame struct {
	Seq  int
	Bits int
	PCM  *media.AudioClip // the frame's samples (metadata for the payload)
}

// AudioEncoder is a constant-bitrate speech encoder model.
type AudioEncoder struct {
	Bitrate float64 // bits per second (paper: Zoom 90k, Webex 45k, Meet 40k)
	rate    int
	seq     int
}

// NewAudioEncoder creates an encoder at the given wire bitrate.
func NewAudioEncoder(bitrate float64) *AudioEncoder {
	if bitrate <= 0 {
		bitrate = 48000
	}
	return &AudioEncoder{Bitrate: bitrate}
}

// Encode splits the clip into 20 ms frames. A trailing partial frame is
// padded conceptually (its PCM is simply shorter).
func (e *AudioEncoder) Encode(clip *media.AudioClip) []AudioFrame {
	e.rate = clip.Rate
	frameSamples := int(AudioFrameDur * float64(clip.Rate))
	if frameSamples <= 0 {
		return nil
	}
	bits := int(e.Bitrate * AudioFrameDur)
	var out []AudioFrame
	for off := 0; off < len(clip.Samples); off += frameSamples {
		end := off + frameSamples
		if end > len(clip.Samples) {
			end = len(clip.Samples)
		}
		out = append(out, AudioFrame{
			Seq:  e.seq,
			Bits: bits,
			PCM:  clip.Slice(off, end),
		})
		e.seq++
	}
	return out
}

// AudioDecoder reconstructs PCM from a frame stream with loss
// concealment: a lost frame is replaced by the previous frame's samples
// attenuated progressively (Opus-like PLC), decaying to silence under
// sustained loss. Coding noise is added inversely with bitrate so very
// low rates measurably hurt the MOS estimator.
type AudioDecoder struct {
	rng *rand.Rand
}

// NewAudioDecoder creates a decoder; rng, which the decoder owns from
// then on, drives the coding-noise model.
func NewAudioDecoder(rng *rand.Rand) *AudioDecoder {
	return &AudioDecoder{rng: rng}
}

// Decode rebuilds the clip. frames[i] == nil marks a lost frame. rate is
// the PCM sample rate; bitrate the codec's wire rate.
func (d *AudioDecoder) Decode(frames []*AudioFrame, rate int, bitrate float64) *media.AudioClip {
	frameSamples := int(AudioFrameDur * float64(rate))
	out := &media.AudioClip{Rate: rate}
	var prev []float64
	lossRun := 0
	// Coding noise: inaudible at >=40 kbps, noticeable below ~16 kbps.
	noiseStd := 0.0
	if bitrate > 0 {
		noiseStd = 0.002 * math.Sqrt(16000/math.Max(bitrate, 1000))
	}
	for _, f := range frames {
		if f != nil {
			lossRun = 0
			seg := make([]float64, len(f.PCM.Samples))
			copy(seg, f.PCM.Samples)
			for i := range seg {
				// The conversion rounds the product before the add,
				// so arm64 cannot fuse them into one multiply-add.
				seg[i] += float64(d.rng.NormFloat64() * noiseStd)
			}
			out.Samples = append(out.Samples, seg...)
			prev = seg
			continue
		}
		// Concealment.
		lossRun++
		atten := math.Pow(0.5, float64(lossRun))
		n := frameSamples
		if len(prev) > 0 && len(prev) < n {
			n = len(prev)
		}
		seg := make([]float64, n)
		for i := range seg {
			v := 0.0
			if len(prev) > 0 {
				v = prev[i%len(prev)] * atten
			}
			seg[i] = v
		}
		out.Samples = append(out.Samples, seg...)
	}
	return out
}
