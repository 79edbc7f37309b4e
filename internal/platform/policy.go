package platform

import "math/rand"

// RatePolicy computes a session's video bitrate target for the sender.
// The paper could only observe the *effects* of each platform's rate
// control (Figs 15, 17, 19, Table 4); these policies reproduce those
// observed behaviors:
//
//   - Zoom: modest targets (~0.7 Mbps relay, ~1.0 Mbps P2P), a stepwise
//     ladder downward under loss, quick recovery — best rate-for-QoE in
//     the US, with a cliff below ~250 kbps.
//   - Webex: a high, nearly constant target (~2.5 Mbps) that barely
//     reacts to loss — "virtually no fluctuation across sessions", and
//     the worst collapse under tight bandwidth caps.
//   - Meet: high two-party target (~1.8 Mbps), low multi-party target
//     (~0.5 Mbps) with large session-to-session variance, and prompt
//     goodput-tracking adaptation — the most graceful degradation.
type RatePolicy interface {
	// InitialTarget returns the starting bitrate for a session with n
	// participants, relayed or P2P. rng adds the platform's
	// session-to-session variance deterministically.
	InitialTarget(n int, p2p bool, rng *rand.Rand) float64
	// Adjust returns the new target given one feedback interval's loss
	// fraction and measured goodput (bps).
	Adjust(current, loss, goodput float64) float64
	// Floor is the lowest target the platform will use.
	Floor() float64
}

// spread returns a session-to-session variance factor within ±width/2
// of 1 from one uniform draw. The draw and the product are rounded
// apart, so arm64 fuses neither into the sum after it (amd64 never
// fuses), and every architecture gets amd64's bits.
func spread(rng *rand.Rand, width float64) float64 {
	return 1 + float64(width*(float64(rng.Float64())-0.5))
}

// --- Zoom ---

type zoomPolicy struct{}

// NewZoomPolicy returns Zoom's rate policy.
func NewZoomPolicy() RatePolicy { return zoomPolicy{} }

func (zoomPolicy) InitialTarget(n int, p2p bool, rng *rand.Rand) float64 {
	if p2p {
		return 1_000_000 * spread(rng, 0.05)
	}
	return 700_000 * spread(rng, 0.05)
}

func (zoomPolicy) Adjust(cur, loss, goodput float64) float64 {
	switch {
	case loss > 0.05:
		// Step down the ladder, harder the worse the loss: Zoom
		// converges within seconds and descends far enough that audio
		// plus residual video fit under even a 250 kbps cap (the
		// mechanism behind its flat audio MOS in Fig 18).
		f := 1 - 2*loss
		if f < 0.4 {
			f = 0.4
		}
		cur *= f
	case loss < 0.01:
		cur *= 1.08 // probe back up
	}
	if cur > 1_000_000 {
		cur = 1_000_000
	}
	if cur < 60_000 {
		cur = 60_000
	}
	return cur
}

func (zoomPolicy) Floor() float64 { return 60_000 }

// --- Webex ---

type webexPolicy struct{}

// NewWebexPolicy returns Webex's rate policy.
func NewWebexPolicy() RatePolicy { return webexPolicy{} }

func (webexPolicy) InitialTarget(n int, p2p bool, rng *rand.Rand) float64 {
	// Virtually constant across sessions and participant counts.
	return 2_500_000 * spread(rng, 0.01)
}

func (webexPolicy) Adjust(cur, loss, goodput float64) float64 {
	// Sluggish: only a catastrophic interval moves the target, and the
	// platform races right back up — sustained overload under caps.
	switch {
	case loss > 0.15:
		cur *= 0.5
	case loss < 0.02:
		cur *= 1.3
	}
	if cur > 2_500_000 {
		cur = 2_500_000
	}
	if cur < 400_000 {
		cur = 400_000
	}
	return cur
}

func (webexPolicy) Floor() float64 { return 400_000 }

// --- Meet ---

type meetPolicy struct{}

// NewMeetPolicy returns Meet's rate policy.
func NewMeetPolicy() RatePolicy { return meetPolicy{} }

func (meetPolicy) InitialTarget(n int, p2p bool, rng *rand.Rand) float64 {
	if n <= 2 {
		// 1.6-2.0 Mbps two-party sessions (§4.3.1).
		return 1_800_000 * spread(rng, 0.12)
	}
	// 0.4-0.6 Mbps multi-party, with the most dynamic variance.
	return 500_000 * spread(rng, 0.4)
}

func (meetPolicy) Adjust(cur, loss, goodput float64) float64 {
	switch {
	case loss > 0.02 && goodput > 0:
		// Track measured goodput with headroom: graceful degradation.
		cur = goodput * 0.85
	case loss < 0.005:
		cur *= 1.05
	}
	if cur > 2_000_000 {
		cur = 2_000_000
	}
	if cur < 120_000 {
		cur = 120_000
	}
	return cur
}

func (meetPolicy) Floor() float64 { return 120_000 }
