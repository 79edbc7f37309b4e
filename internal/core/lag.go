package core

import (
	"time"

	"github.com/vcabench/vcabench/internal/capture"
	"github.com/vcabench/vcabench/internal/client"
	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/probe"
	"github.com/vcabench/vcabench/internal/stats"
)

// LagStudyResult holds everything Figs 2-11 are drawn from for one
// (platform, host region) scenario.
type LagStudyResult struct {
	Kind       platform.Kind
	HostRegion geo.Region
	// Lags maps each participant region name to its streaming-lag
	// samples in milliseconds (Figs 4-7).
	Lags map[string]*stats.Sample
	// RTTs maps each participant region name to per-session average
	// RTTs to its service endpoint, in milliseconds (Figs 8-11).
	RTTs map[string]*stats.Sample
	// Endpoints is the Fig-3 discovery summary for one tracked client.
	Endpoints capture.EndpointStats
	// Fig2 is one session's packet-size scatter (sender and receiver).
	Fig2 Fig2Series
}

// Fig2Series is the packet scatter of Fig 2.
type Fig2Series struct {
	SentT, RecvT []time.Duration
	SentS, RecvS []int
}

// RunLagStudy reproduces one lag scenario: a host VM injecting the
// two-second flash feed (Fig 2) into sessionCount sessions joined by the
// participant fleet, with lag extracted from traces and RTTs measured by
// tcpping — the §4.2 methodology end to end.
func RunLagStudy(tb *Testbed, kind platform.Kind, host geo.Region, others []geo.Region, sc Scale) *LagStudyResult {
	pf := tb.Platform(kind)
	resolve := tb.Resolver()

	hostClient := client.New(tb.Net, client.Config{
		Name:        tb.uniqueName("lag-" + string(pf.Kind()) + "-host"),
		Region:      host,
		SendVideo:   true,
		VideoSource: media.NewFlash(sc.Profile, 2.0),
		Profile:     sc.Profile,
		Seed:        tb.seed + 100,
		Resolve:     resolve,
		Capture:     tb.captures,
	})
	recvs := make([]*client.Client, len(others))
	for i, r := range others {
		recvs[i] = client.New(tb.Net, client.Config{
			Name:    tb.uniqueName("lag-" + string(pf.Kind()) + "-" + r.Name),
			Region:  r,
			Profile: sc.Profile,
			Seed:    tb.seed + 200 + int64(i),
			Resolve: resolve,
			Capture: tb.captures,
		})
	}

	res := &LagStudyResult{
		Kind: kind, HostRegion: host,
		Lags: make(map[string]*stats.Sample),
		RTTs: make(map[string]*stats.Sample),
	}
	for _, r := range others {
		res.Lags[r.Name] = stats.NewSample(0)
		res.RTTs[r.Name] = stats.NewSample(0)
	}
	res.RTTs[host.Name] = stats.NewSample(0)

	type window struct{ from, to time.Time }
	var windows []window

	all := append([]*client.Client{hostClient}, recvs...)
	for sess := 0; sess < sc.LagSessions; sess++ {
		s := pf.CreateSession()
		for _, c := range all {
			c.Join(s)
		}
		s.Start()
		from := tb.Sim.Now()
		for _, c := range all {
			c.Start()
		}
		// Active probing from every participant toward its endpoint.
		interval := sc.LagDur / time.Duration(sc.ProbesPerSession+2)
		for ci, c := range all {
			var region geo.Region
			if ci == 0 {
				region = host
			} else {
				region = others[ci-1]
			}
			att := c.Attachment()
			if att.Endpoint() == nil {
				continue // P2P: no service endpoint to probe
			}
			target := att.Endpoint().Addr(pf.MediaPort())
			pr := probe.NewProber(tb.Sim, c.Node())
			sample := res.RTTs[region.Name]
			pr.Run(target, sc.ProbesPerSession, interval, func(rtts []time.Duration) {
				if len(rtts) == 0 {
					return
				}
				var sum time.Duration
				for _, r := range rtts {
					sum += r
				}
				avg := sum / time.Duration(len(rtts))
				sample.Add(float64(avg) / float64(time.Millisecond))
			})
		}
		tb.Sim.RunFor(sc.LagDur)
		for _, c := range all {
			c.Stop()
		}
		s.End()
		windows = append(windows, window{from: from, to: tb.Sim.Now()})
		for _, c := range all {
			c.Reset()
		}
		// Idle gap between sessions.
		tb.Sim.RunFor(2 * time.Second)
	}

	// Lag extraction (Fig 2 method) over the full campaign per receiver.
	for i, r := range others {
		lags := capture.Lags(hostClient.Trace(), recvs[i].Trace(), capture.DefaultBurstConfig, time.Second)
		for _, l := range lags {
			res.Lags[r.Name].Add(float64(l) / float64(time.Millisecond))
		}
	}

	// Endpoint discovery (Fig 3): the first receiver's per-session traces.
	var perSession []*capture.Trace
	for _, w := range windows {
		perSession = append(perSession, recvs[0].Trace().Between(w.from, w.to))
	}
	res.Endpoints = capture.DiscoverEndpoints(perSession)

	// Fig 2 scatter from the first session's first 10 seconds.
	if len(windows) > 0 {
		w := windows[0]
		to := w.from.Add(10 * time.Second)
		if to.After(w.to) {
			to = w.to
		}
		hostT := hostClient.Trace().Between(w.from, to)
		recvT := recvs[0].Trace().Between(w.from, to)
		res.Fig2.SentT, res.Fig2.SentS = capture.SizeSeries(hostT, capture.Out)
		res.Fig2.RecvT, res.Fig2.RecvS = capture.SizeSeries(recvT, capture.In)
	}
	// Every trace read is done: the traces' storage goes back to the
	// running worker's capture store (see Testbed.captures).
	for _, c := range all {
		c.Monitor.Release()
	}
	return res
}

// LagScenario names the four host placements of Figs 4-7.
type LagScenario struct {
	ID    string
	Host  geo.Region
	Fleet []geo.Region
}

// LagScenarios returns the paper's four scenarios in figure order.
func LagScenarios() []LagScenario {
	return []LagScenario{
		{ID: "fig4", Host: geo.USEast, Fleet: USLagFleet(geo.USEast)},
		{ID: "fig5", Host: geo.USWest, Fleet: USLagFleet(geo.USWest)},
		{ID: "fig6", Host: geo.UKWest, Fleet: EULagFleet(geo.UKWest)},
		{ID: "fig7", Host: geo.CH, Fleet: EULagFleet(geo.CH)},
	}
}
