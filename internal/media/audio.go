package media

import (
	"math"
	"math/rand"
)

// AudioClip is mono PCM in [-1, 1].
type AudioClip struct {
	Rate    int // samples per second
	Samples []float64
}

// Slice returns the sub-clip [from, to) in samples (view, shared storage).
func (c *AudioClip) Slice(from, to int) *AudioClip {
	if from < 0 {
		from = 0
	}
	if to > len(c.Samples) {
		to = len(c.Samples)
	}
	if from > to {
		from = to
	}
	return &AudioClip{Rate: c.Rate, Samples: c.Samples[from:to]}
}

// DefaultAudioRate is the synthesis sample rate (wideband speech).
const DefaultAudioRate = 16000

// NewSpeech synthesizes seconds of speech-like audio: a fundamental with
// harmonics whose pitch and amplitude are modulated at syllabic rates,
// with inter-word pauses. Deterministic for a given seed.
func NewSpeech(seconds float64, seed int64) *AudioClip {
	rng := rand.New(rand.NewSource(seed))
	n := int(seconds * DefaultAudioRate)
	c := &AudioClip{Rate: DefaultAudioRate, Samples: make([]float64, n)}
	f0 := 110 + float64(rng.Float64()*60) // speaker fundamental
	phase := [4]float64{}
	for i := 0; i < n; i++ {
		t := float64(i) / DefaultAudioRate
		// Syllable envelope at ~4 Hz; word pauses at ~0.8 Hz.
		syll := 0.5 + float64(0.5*math.Sin(float64(2*math.Pi*4*t)+1.3))
		word := math.Sin(float64(2*math.Pi*0.8*t) + 0.4)
		env := syll
		if word < -0.55 {
			env = 0 // pause between words
		}
		// Slow pitch wobble.
		pitch := f0 * (1 + float64(0.05*math.Sin(2*math.Pi*0.6*t)))
		var s float64
		amps := [4]float64{1.0, 0.6, 0.35, 0.2}
		for h := 0; h < 4; h++ {
			phase[h] += 2 * math.Pi * pitch * float64(h+1) / DefaultAudioRate
			s += float64(amps[h] * math.Sin(phase[h]))
		}
		// Aspiration noise.
		s += float64(rng.NormFloat64() * 0.02)
		c.Samples[i] = s * env * 0.3
	}
	return c
}

// NewTone synthesizes a pure sine (calibration/test signal).
func NewTone(seconds, freq float64, rate int) *AudioClip {
	if rate <= 0 {
		rate = DefaultAudioRate
	}
	n := int(seconds * float64(rate))
	c := &AudioClip{Rate: rate, Samples: make([]float64, n)}
	for i := 0; i < n; i++ {
		c.Samples[i] = 0.5 * math.Sin(2*math.Pi*freq*float64(i)/float64(rate))
	}
	return c
}
