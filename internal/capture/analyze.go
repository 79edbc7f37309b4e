package capture

import (
	"time"
)

// The Fig-2 lag-measurement method: the meeting host streams a blank
// screen with a short image flash every two seconds, so its traffic is a
// train of "big" packets separated by quiescent periods of small keepalive
// packets. The first big packet after a quiescent period longer than
// MinQuiet marks the flash; matching the k-th flash on the sender with the
// k-th on the receiver yields the streaming lag.

// BurstConfig parameterizes flash detection.
type BurstConfig struct {
	// BigBytes is the L7 size above which a packet is "big" (paper: >200).
	BigBytes int
	// MinQuiet is the minimum big-packet silence preceding a burst
	// (paper: more than a second).
	MinQuiet time.Duration
}

// DefaultBurstConfig matches the paper's parameters.
var DefaultBurstConfig = BurstConfig{BigBytes: 200, MinQuiet: time.Second}

// Bursts returns the timestamps of the first big packet of each burst in
// the given direction.
func Bursts(t *Trace, d Dir, cfg BurstConfig) []time.Time {
	if cfg.BigBytes == 0 {
		cfg = DefaultBurstConfig
	}
	var out []time.Time
	var lastBig int64
	haveBig := false
	for rs := range t.runs {
		for i := range rs {
			r := &rs[i]
			if r.Dir != d || r.Len <= cfg.BigBytes {
				continue
			}
			if !haveBig || time.Duration(r.UnixNano-lastBig) > cfg.MinQuiet {
				out = append(out, r.Time())
			}
			lastBig = r.UnixNano
			haveBig = true
		}
	}
	return out
}

// MatchBursts pairs sender-side burst times with receiver-side burst times
// and returns one lag per matched pair. Alignment is by order, with
// resynchronization: a receiver burst earlier than the current sender
// burst is discarded (it belongs to a missed earlier flash), and a
// receiver burst more than maxLag after it means the flash was lost and
// the sender burst is skipped.
func MatchBursts(sent, recv []time.Time, maxLag time.Duration) []time.Duration {
	if maxLag <= 0 {
		maxLag = time.Second
	}
	var lags []time.Duration
	i, j := 0, 0
	for i < len(sent) && j < len(recv) {
		d := recv[j].Sub(sent[i])
		switch {
		case d < 0:
			j++ // receiver burst predates this flash: stale, discard
		case d > maxLag:
			i++ // flash never arrived: skip it
		default:
			lags = append(lags, d)
			i++
			j++
		}
	}
	return lags
}

// Lags runs the full Fig-2 pipeline: detect bursts on the sender trace
// (direction Out) and the receiver trace (direction In), then match them.
func Lags(sender, receiver *Trace, cfg BurstConfig, maxLag time.Duration) []time.Duration {
	s := Bursts(sender, Out, cfg)
	r := Bursts(receiver, In, cfg)
	return MatchBursts(s, r, maxLag)
}

// EndpointStats summarizes service-endpoint discovery across sessions
// (the Fig-3 analysis): how many distinct remote media endpoints a client
// saw in total and per session.
type EndpointStats struct {
	Total      int     // distinct endpoints across all sessions
	PerSession float64 // average distinct endpoints per session
	Sessions   int
}

// DiscoverEndpoints analyzes one trace per session. Only inbound media
// (records with RTP metadata, or all inbound records when none carry RTP)
// counts; the remote endpoint of each is a service endpoint.
func DiscoverEndpoints(sessions []*Trace) EndpointStats {
	all := make(map[Endpoint]bool)
	// seen marks, per session, whether an endpoint was already listed as
	// a media source (seenMedia) and as an inbound source (seenIn).
	const seenMedia, seenIn = 1, 2
	seen := make(map[Endpoint]uint8)
	var media, inbound []Endpoint // first-seen order
	perSession := 0
	for _, t := range sessions {
		clear(seen)
		media, inbound = media[:0], inbound[:0]
		for rs := range t.runs {
			for i := range rs {
				r := &rs[i]
				if r.Dir != In {
					continue
				}
				e := r.Src
				mark := seen[e]
				if mark&seenIn == 0 {
					inbound = append(inbound, e)
					mark |= seenIn
				}
				if r.HasRTP && mark&seenMedia == 0 {
					media = append(media, e)
					mark |= seenMedia
				}
				seen[e] = mark
			}
		}
		eps := media
		if len(eps) == 0 {
			eps = inbound
		}
		perSession += len(eps)
		for _, e := range eps {
			all[e] = true
		}
	}
	st := EndpointStats{Total: len(all), Sessions: len(sessions)}
	if len(sessions) > 0 {
		st.PerSession = float64(perSession) / float64(len(sessions))
	}
	return st
}

// SizeSeries returns (t, size) points for plotting a Fig-2 style packet
// scatter in the given direction, with times relative to the trace start.
func SizeSeries(t *Trace, d Dir) (times []time.Duration, sizes []int) {
	n := t.Packets(d)
	if n == 0 {
		return nil, nil
	}
	from := t.at(0).UnixNano
	times, sizes = make([]time.Duration, 0, n), make([]int, 0, n)
	for rs := range t.runs {
		for i := range rs {
			if rs[i].Dir == d {
				times = append(times, time.Duration(rs[i].UnixNano-from))
				sizes = append(sizes, rs[i].Len)
			}
		}
	}
	return times, sizes
}
