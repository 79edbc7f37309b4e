package core

import (
	"math"
	"time"

	"github.com/vcabench/vcabench/internal/capture"
	"github.com/vcabench/vcabench/internal/client"
	"github.com/vcabench/vcabench/internal/diag"
	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/qoe"
	"github.com/vcabench/vcabench/internal/simnet"
	"github.com/vcabench/vcabench/internal/stats"
	"github.com/vcabench/vcabench/internal/trace"
)

// shaperBurst is the token-bucket depth of every receiver-side cap:
// the tc-tbf burst the paper's last-mile setup used.
const shaperBurst = 24 * 1024

// rateBinWidth is the RateOverTime bin width. One second resolves the
// recovery dynamics the paper plots while keeping paper-scale series
// to a few hundred points.
const rateBinWidth = time.Second

// QoEOpts tunes a QoE study beyond its geometry.
type QoEOpts struct {
	// DownlinkCapBps applies a tc-style token-bucket cap on every
	// receiver's ingress (Figs 17/18); 0 means unlimited.
	DownlinkCapBps int64
	// WithAudio streams speech alongside video and scores MOS-LQO.
	WithAudio bool
	// Trace, when non-nil, replays a time-varying impairment schedule
	// on every receiver's downlink over each session (restarting at
	// every session start), and collects the RateOverTime series. The
	// trace owns the downlink while it plays: DownlinkCapBps is only
	// the pre-trace baseline, restored between sessions.
	Trace *trace.Trace
}

// QoEStudyResult aggregates one (platform, motion, N) cell of Figs 12-18.
type QoEStudyResult struct {
	Kind   platform.Kind
	Motion media.MotionClass
	N      int // users in the session, host included

	PSNR, SSIM, VIFP *stats.Sample // across sessions × receivers
	Freeze           *stats.Sample
	UpMbps, DownMbps *stats.Sample // host upload / receiver download (L7)
	MOS              *stats.Sample // audio, when WithAudio

	// RateOverTime is the mean per-receiver downlink rate (Mbps) in
	// consecutive RateBin-wide bins of session time, averaged across
	// sessions and receivers — how recovery dynamics under a
	// time-varying trace become inspectable. nil for trace-free cells.
	RateOverTime []float64
	RateBin      time.Duration

	// Diag is the cell's flight-recorder document; nil unless the
	// testbed was armed with WithDiagnostics. It rides the result
	// through the cell encoding, the store and the Dispatcher, so every
	// resolution tier yields the same bytes.
	Diag *diag.CellDiag
}

func newQoEResult(kind platform.Kind, motion media.MotionClass, n int) *QoEStudyResult {
	return &QoEStudyResult{
		Kind: kind, Motion: motion, N: n,
		PSNR: stats.NewSample(0), SSIM: stats.NewSample(0), VIFP: stats.NewSample(0),
		Freeze: stats.NewSample(0),
		UpMbps: stats.NewSample(0), DownMbps: stats.NewSample(0),
		MOS: stats.NewSample(0),
	}
}

// RunQoEStudy reproduces one §4.3 cell: a host VM injecting a motion-
// class feed into sc.QoESessions sessions, with every receiver's desktop
// recording scored by PSNR/SSIM/VIFp against the injected original, and
// data rates computed from L7 trace payloads.
func RunQoEStudy(tb *Testbed, kind platform.Kind, host geo.Region, recvRegions []geo.Region,
	motion media.MotionClass, sc Scale, opts QoEOpts) *QoEStudyResult {
	return RunQoEStudyWithSetup(tb, kind, host, recvRegions, motion, sc, opts, nil)
}

// RunQoEStudyWithSetup is RunQoEStudy with a hook invoked once after the
// receiver nodes exist and before any session starts — the seam used by
// the last-mile extension to install time-varying shapers.
func RunQoEStudyWithSetup(tb *Testbed, kind platform.Kind, host geo.Region, recvRegions []geo.Region,
	motion media.MotionClass, sc Scale, opts QoEOpts, setup func(recvNodes []*simnet.Node)) *QoEStudyResult {

	pf := tb.Platform(kind)
	resolve := tb.Resolver()
	res := newQoEResult(kind, motion, len(recvRegions)+1)

	var clip *media.AudioClip
	if opts.WithAudio {
		clip = media.NewSpeech(sc.QoEDur.Seconds(), tb.seed+11)
	}
	// The host's frames live on the running worker's pixel storage (see
	// Testbed.kit), or on a private pool that recycles from session to
	// session; the host's Reset hands each session's storage back.
	hostKit := tb.kit
	if hostKit.Frames == nil {
		hostKit.Frames = media.NewFramePool()
	}
	hostClient := client.New(tb.Net, client.Config{
		Name:       tb.uniqueName("qoe-" + string(pf.Kind()) + "-host"),
		Region:     host,
		SendVideo:  true,
		VideoClass: motion,
		Profile:    sc.Profile,
		SendAudio:  opts.WithAudio,
		AudioClip:  clip,
		Seed:       tb.seed + 300,
		Resolve:    resolve,
		Kit:        hostKit,
	})
	recvs := make([]*client.Client, len(recvRegions))
	for i, r := range recvRegions {
		name := tb.uniqueName("qoe-" + string(pf.Kind()) + "-r" + r.Name)
		cfg := client.Config{
			Name:    name,
			Region:  r,
			Profile: sc.Profile,
			Seed:    tb.seed + 400 + int64(i),
			Resolve: resolve,
			Probe:   tb.clientProbe(name),
			Kit:     tb.kit,
		}
		if opts.DownlinkCapBps > 0 || opts.Trace != nil {
			// tc-tbf style: a short buffer, so overload surfaces as loss
			// within ~1 s instead of an unbounded standing queue.
			cfg.QueueBytes = 32 * 1024
		}
		recvs[i] = client.New(tb.Net, cfg)
		if opts.DownlinkCapBps > 0 {
			recvs[i].Node().SetDownlinkShaper(simnet.NewTokenBucket(opts.DownlinkCapBps, shaperBurst))
		}
	}

	if setup != nil {
		nodes := make([]*simnet.Node, len(recvs))
		for i, r := range recvs {
			nodes[i] = r.Node()
		}
		setup(nodes)
	}

	// One scorer per study, one CompareSession call per session:
	// receivers of a session score against the same injected frames and
	// share decoded-frame pointers, so scoring them together lets the
	// identity-keyed caches collapse that repeated work, and lets each
	// frame's stats go back to the scorer's buffer pool right after its
	// last slot. No output bit changes. The scorer lives and dies with
	// this call, on this goroutine; its float buffers are the running
	// worker's (see Testbed.kit).
	scorer := qoe.NewScorerOn(tb.kit.QoE)

	// A trace-driven cell bins every receiver's downlink bytes over
	// session time; bins average across sessions × receivers at the end.
	var binBytes []int64
	if opts.Trace != nil {
		binBytes = make([]int64, int((sc.QoEDur+rateBinWidth-1)/rateBinWidth))
	}

	all := append([]*client.Client{hostClient}, recvs...)
	for sess := 0; sess < sc.QoESessions; sess++ {
		s := pf.CreateSession()
		for _, c := range all {
			c.Join(s)
		}
		s.Start()
		from := tb.Sim.Now()
		for _, c := range all {
			c.Start()
		}
		// The trace restarts at every session start, so each session
		// sees the same disturbance schedule in session time.
		var players []*trace.Player
		if opts.Trace != nil {
			for _, r := range recvs {
				players = append(players, trace.Play(tb.Sim, r.Node(), *opts.Trace, shaperBurst, tb.traceProbe()))
			}
		}
		tb.Sim.RunFor(sc.QoEDur)
		for _, c := range all {
			c.Stop()
		}
		s.End()
		to := tb.Sim.Now()
		// Freeze the schedule and restore the pre-trace baseline before
		// the inter-session gap.
		for i, p := range players {
			p.Stop()
			recvs[i].Node().SetDownlinkState(simnet.LinkState{CapBps: opts.DownlinkCapBps, Burst: shaperBurst})
		}

		// Score this session.
		hostWin := hostClient.Trace().Between(from, to)
		res.UpMbps.Add(hostWin.Rate(capture.Out) / 1e6)
		recs := client.RecordSession(hostClient, recvs, sc.QoEStride)
		shown := make([][]*media.Frame, len(recvs))
		for i, r := range recvs {
			tb.recordFreezes(recs[i], r.Name(), from, sc.Profile.FPS)
			shown[i] = recs[i].Displayed
		}
		var scores []qoe.VideoResult
		if len(recs) > 0 {
			// Every recording's Ref holds the host's injected frames.
			scores = scorer.CompareSession(recs[0].Ref, shown, sc.QoEStride)
		}
		for i, r := range recvs {
			rec, v := recs[i], scores[i]
			res.PSNR.Add(v.PSNR)
			res.SSIM.Add(v.SSIM)
			res.VIFP.Add(v.VIFP)
			res.Freeze.Add(v.FreezeRatio)
			win := r.Trace().Between(from, to)
			res.DownMbps.Add(win.Rate(capture.In) / 1e6)
			if opts.WithAudio && rec.Audio != nil {
				res.MOS.Add(qoe.MOSLQO(rec.RefAudio, rec.Audio))
			}
			for b := range binBytes {
				bs := from.Add(time.Duration(b) * rateBinWidth)
				be := bs.Add(rateBinWidth)
				if be.After(to) {
					be = to
				}
				binBytes[b] += win.Between(bs, be).Bytes(capture.In)
			}
		}
		// Scoring and the freeze diagnostics are done with this
		// session's frames: the host's Reset returns their storage.
		for _, c := range all {
			c.Reset()
		}
		tb.Sim.RunFor(2 * time.Second)
	}
	// Every trace read is done and the study's simulator will not run
	// again: its storage goes back to the running worker's kit.
	tb.endStudy(all)
	if binBytes != nil {
		res.RateBin = rateBinWidth
		res.RateOverTime = make([]float64, len(binBytes))
		for b, n := range binBytes {
			// The final bin is clamped to the session end, so its rate
			// normalizes over its actual span, not the nominal width
			// (QoEDur need not be a whole multiple of the bin width).
			span := sc.QoEDur - time.Duration(b)*rateBinWidth
			if span > rateBinWidth {
				span = rateBinWidth
			}
			norm := float64(sc.QoESessions*len(recvs)) * span.Seconds()
			res.RateOverTime[b] = float64(n) * 8 / norm / 1e6
		}
	}
	if tb.diagRec != nil {
		res.Diag = tb.diagRec.Finalize()
	}
	return res
}

// BandwidthCaps is the Fig-17/18 sweep, 0 meaning "Infinite".
var BandwidthCaps = []int64{250_000, 500_000, 1_000_000, 0}

// CapLabel names a cap value as the paper's x-axis does: 0 is
// "Infinite", everything else renders through ratePretty (which
// produces the paper's "250Kbps"/"1Mbps" spellings for the standard
// sweep values).
func CapLabel(cap int64) string {
	if cap == 0 {
		return "Infinite"
	}
	return ratePretty(float64(cap))
}

func ratePretty(bps float64) string {
	abs := math.Abs(bps)
	switch {
	case abs >= 1e6:
		return trim(bps/1e6) + "Mbps"
	case abs >= 1e3:
		return trim(bps/1e3) + "Kbps"
	}
	return trim(bps) + "bps"
}

// trim renders v with at most one decimal place, rounding half away
// from zero, and drops a zero fraction: 2.97 -> "3", 1.5 -> "1.5",
// -0.25 -> "-0.3".
func trim(v float64) string {
	tenths := int64(math.Round(math.Abs(v) * 10))
	s := make([]byte, 0, 8)
	if v < 0 && tenths > 0 {
		s = append(s, '-')
	}
	s = appendInt(s, tenths/10)
	if frac := tenths % 10; frac > 0 {
		s = append(s, '.')
		s = appendInt(s, frac)
	}
	return string(s)
}

// appendInt appends the decimal form of a non-negative integer.
func appendInt(b []byte, v int64) []byte {
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}
