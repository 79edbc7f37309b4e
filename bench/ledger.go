package main

import (
	"fmt"
	"time"

	"github.com/vcabench/vcabench"
	"github.com/vcabench/vcabench/internal/codec"
	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/qoe"
	"github.com/vcabench/vcabench/internal/rtp"
	"github.com/vcabench/vcabench/internal/simnet"
)

// The stage ledger calls each pipeline layer's exported functions
// itself, on fixed inputs derived from the workload seed, and times each
// stage as a batch: media source → encoder → packetizer → simnet path →
// reassembler → decoder → scorer. Batch timing keeps clock reads out of
// the sub-microsecond stages. Each stage reports a mean time per call
// (the median over ledgerReps repetitions) and an exact work count for
// one repetition, which repeats on any hardware.

const (
	ledgerReps    = 5
	ledgerSeconds = 8         // content per feed: TinyScale's QoE session length
	ledgerStride  = 5         // TinyScale's QoE scoring stride
	ledgerBps     = 1_500_000 // encoder target: above every cap of the cap sweep
	ledgerPort    = 5004
	shaperBurst   = 24 << 10 // the campaign engine's receiver-side token bucket depth
	shaperQueue   = 32 << 10 // and its tc-tbf style queue
	flashPeriod   = 2.0      // the lag study's flash period, seconds
)

// ledgerSpec fixes a workload's ledger inputs.
type ledgerSpec struct {
	feeds     []string     // "low-motion", "high-motion" or "flash"
	capsBps   []int64      // one simnet run per cap; 0 is uncapped
	receivers []geo.Region // the sender fans out to every receiver
}

// stageTotals accumulates one repetition's wall time and work per stage.
type stageTotals struct {
	next, encode, decode, packetize, reassemble, deliver time.Duration
	compare, ssim, vifp, psnr                            time.Duration
	frames, encoded, skipped, packets, decodes, pushes   int
	delivered, events, drops, compares, pairs            int
}

// sink keeps the compiler from discarding metric calls whose results
// the ledger does not otherwise use.
var sink float64

// runLedger runs spec ledgerReps times and reports the ledger metrics.
func runLedger(spec ledgerSpec, seed int64) (map[string]float64, error) {
	type timing struct {
		name string
		d    *time.Duration
		n    *int
		unit time.Duration
	}
	var t stageTotals
	timings := []timing{
		{"media.next_us", &t.next, &t.frames, time.Microsecond},
		{"codec.encode_us", &t.encode, &t.encoded, time.Microsecond},
		{"codec.decode_us", &t.decode, &t.decodes, time.Microsecond},
		{"rtp.packetize_us", &t.packetize, &t.encoded, time.Microsecond},
		{"rtp.reassemble_ns", &t.reassemble, &t.pushes, time.Nanosecond},
		{"simnet.deliver_ns", &t.deliver, &t.delivered, time.Nanosecond},
		{"qoe.compare_ms", &t.compare, &t.compares, time.Millisecond},
		{"qoe.ssim_ms", &t.ssim, &t.pairs, time.Millisecond},
		{"qoe.vifp_ms", &t.vifp, &t.pairs, time.Millisecond},
		{"qoe.psnr_ms", &t.psnr, &t.pairs, time.Millisecond},
	}
	perCall := make([][]float64, len(timings))
	for rep := 0; rep < ledgerReps; rep++ {
		t = stageTotals{}
		for fi, feed := range spec.feeds {
			if err := t.runFeed(spec, feed, seed+int64(fi)); err != nil {
				return nil, err
			}
		}
		for i, tm := range timings {
			perCall[i] = append(perCall[i], perOp(*tm.d, *tm.n, tm.unit))
		}
	}
	m := map[string]float64{
		"media.frames":         float64(t.frames),
		"codec.frames":         float64(t.encoded),
		"codec.skipped_frames": float64(t.skipped),
		"rtp.packets":          float64(t.packets),
		"simnet.events":        float64(t.events),
		"simnet.drops":         float64(t.drops),
		"qoe.pairs":            float64(t.pairs),
	}
	for i, tm := range timings {
		m[tm.name] = median(perCall[i])
	}
	return m, nil
}

// perOp is the mean duration of one of n calls, in unit.
func perOp(d time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(n)
}

// runFeed pushes one feed through every stage, once per cap.
func (t *stageTotals) runFeed(spec ledgerSpec, feed string, seed int64) error {
	p := media.QuickProfile
	var src media.Source
	switch feed {
	case "flash":
		src = media.NewFlash(p, flashPeriod)
	case media.LowMotion.String():
		src = media.NewSource(media.LowMotion, p, seed)
	case media.HighMotion.String():
		src = media.NewSource(media.HighMotion, p, seed)
	default:
		return fmt.Errorf("ledger: unknown feed %q", feed)
	}
	n := p.FPS * ledgerSeconds

	frames := make([]*media.Frame, n)
	t0 := time.Now()
	for i := range frames {
		frames[i] = src.Next()
	}
	t.next += time.Since(t0)
	t.frames += n

	enc := codec.NewVideoEncoder(codec.VideoEncoderConfig{
		FPS: p.FPS, TargetBps: ledgerBps, BitScale: codec.BitScaleFor(p), Seed: seed,
	})
	efs := make([]codec.EncodedFrame, n)
	t0 = time.Now()
	for i, f := range frames {
		efs[i] = enc.Encode(f)
	}
	t.encode += time.Since(t0)
	t.encoded += n

	pk := rtp.NewPacketizer(uint32(seed), rtp.DefaultMTU, p.FPS)
	pkts := make([][]*rtp.Packet, n)
	t0 = time.Now()
	for i := range efs {
		pkts[i] = pk.Video(&efs[i])
	}
	t.packetize += time.Since(t0)
	for i := range efs {
		t.packets += len(pkts[i])
		if efs[i].Skipped {
			t.skipped++
		}
	}

	for _, capBps := range spec.capsBps {
		got := t.deliver1(pkts, spec.receivers, capBps, seed, p.FPS)
		for _, arrived := range got {
			shown := t.decode1(efs, arrived)
			t.score(frames, shown)
		}
	}
	return nil
}

// deliver1 sends every packet from a US-East sender to each receiver
// over a fresh simnet path, frame by frame at the feed's rate, and
// returns what each receiver got, in arrival order.
func (t *stageTotals) deliver1(pkts [][]*rtp.Packet, recvs []geo.Region, capBps, seed int64, fps int) [][]*rtp.Packet {
	sim := simnet.NewSim(seed)
	net := simnet.NewNetwork(sim, simnet.NetworkConfig{})
	sender := net.AddNode(simnet.NodeConfig{Name: "sender", Region: vcabench.USEast})
	names := make([]string, len(recvs))
	got := make([][]*rtp.Packet, len(recvs))
	nodes := make([]*simnet.Node, len(recvs))
	for i, r := range recvs {
		i := i
		names[i] = fmt.Sprintf("recv%d", i)
		cfg := simnet.NodeConfig{Name: names[i], Region: r}
		if capBps > 0 {
			cfg.QueueBytes = shaperQueue
		}
		nodes[i] = net.AddNode(cfg)
		if capBps > 0 {
			nodes[i].SetDownlinkShaper(simnet.NewTokenBucket(capBps, shaperBurst))
		}
		nodes[i].Bind(ledgerPort, func(pkt *simnet.Packet) {
			got[i] = append(got[i], pkt.Payload.(*rtp.Packet))
		})
	}
	interval := time.Second / time.Duration(fps)
	for fi := range pkts {
		frame := pkts[fi]
		sim.At(simnet.Epoch.Add(time.Duration(fi)*interval), func() {
			for _, rp := range frame {
				for _, name := range names {
					pkt := net.NewPacket()
					pkt.To = simnet.Addr{Node: name, Port: ledgerPort}
					pkt.Size = rp.Bytes
					pkt.Payload = rp
					if err := sender.Send(pkt); err != nil {
						panic(err) // every receiver was added above
					}
				}
			}
		})
	}
	steps := sim.Steps()
	t0 := time.Now()
	sim.RunFor(time.Duration(len(pkts))*interval + 2*time.Second)
	t.deliver += time.Since(t0)
	t.events += int(sim.Steps() - steps)
	for i, node := range nodes {
		st := node.DownlinkStats()
		t.drops += int(st.DropsQueue + st.DropsRandom)
		t.delivered += len(got[i])
	}
	t.drops += int(net.DistanceDrops())
	return got
}

// decode1 reassembles one receiver's arrivals and decodes every display
// slot, freezing where a frame never completed.
func (t *stageTotals) decode1(efs []codec.EncodedFrame, arrived []*rtp.Packet) []*media.Frame {
	ra := rtp.NewReassembler(5)
	complete := make(map[int]*codec.EncodedFrame, len(efs))
	t0 := time.Now()
	for _, pkt := range arrived {
		vids, _ := ra.Push(pkt)
		for _, ef := range vids {
			complete[ef.Seq] = ef
		}
	}
	t.reassemble += time.Since(t0)
	t.pushes += len(arrived)

	dec := codec.NewVideoDecoder()
	shown := make([]*media.Frame, len(efs))
	t0 = time.Now()
	for i := range efs {
		ef := &efs[i]
		switch {
		case ef.Skipped:
			shown[i] = dec.Decode(ef)
		case complete[ef.Seq] != nil:
			shown[i] = dec.Decode(complete[ef.Seq])
		default:
			shown[i] = dec.Decode(nil)
		}
	}
	t.decode += time.Since(t0)
	t.decodes += len(efs)
	return shown
}

// score runs the study scorer over one recording, then each metric
// alone on the same sampled pairs.
func (t *stageTotals) score(ref, shown []*media.Frame) {
	t0 := time.Now()
	sink += qoe.NewScorer().CompareVideo(ref, shown, ledgerStride).SSIM
	t.compare += time.Since(t0)
	t.compares++

	var refs, dists []*media.Frame
	for i := 0; i < len(ref); i += ledgerStride {
		d := shown[i]
		if d == nil {
			d = media.NewFrame(ref[i].W, ref[i].H) // never shown: scored as black
		}
		refs, dists = append(refs, ref[i]), append(dists, d)
	}
	for _, m := range []struct {
		f   func(a, b *media.Frame) float64
		acc *time.Duration
	}{{qoe.SSIM, &t.ssim}, {qoe.VIFP, &t.vifp}, {qoe.PSNR, &t.psnr}} {
		t0 = time.Now()
		for i := range refs {
			sink += m.f(refs[i], dists[i])
		}
		*m.acc += time.Since(t0)
	}
	t.pairs += len(refs)
}
