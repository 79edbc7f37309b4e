package client

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/vcabench/vcabench/internal/capture"
	"github.com/vcabench/vcabench/internal/codec"
	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/kit"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/qoe"
	"github.com/vcabench/vcabench/internal/simnet"
)

func testbed(seed int64) (*simnet.Sim, *simnet.Network) {
	s := simnet.NewSim(seed)
	return s, simnet.NewNetwork(s, simnet.NetworkConfig{})
}

// runSession wires a host sender and receivers through a platform and
// runs the session for dur, returning the participants.
func runSession(t *testing.T, kind platform.Kind, seed int64, dur time.Duration,
	hostCfg Config, recvCfgs []Config) (*simnet.Sim, *Client, []*Client) {
	t.Helper()
	sim, net := testbed(seed)
	p := platform.New(kind, net)
	resolve := func(n string) (capture.IPv4, bool) { return p.Resolve(n) }
	hostCfg.Resolve = resolve
	host := New(net, hostCfg)
	var recvs []*Client
	s := p.CreateSession()
	host.Join(s)
	for _, rc := range recvCfgs {
		rc.Resolve = resolve
		r := New(net, rc)
		r.Join(s)
		recvs = append(recvs, r)
	}
	s.Start()
	host.Start()
	for _, r := range recvs {
		r.Start()
	}
	sim.RunFor(dur)
	host.Stop()
	for _, r := range recvs {
		r.Stop()
	}
	s.End()
	return sim, host, recvs
}

func TestEndToEndVideoSession(t *testing.T) {
	host := Config{
		Name: "e2e-host", Region: geo.USEast,
		SendVideo: true, VideoClass: media.LowMotion, Seed: 1,
	}
	recv := Config{Name: "e2e-recv", Region: geo.USWest, Seed: 2}
	_, h, rs := runSession(t, platform.Webex, 1, 10*time.Second, host, []Config{recv})
	r := rs[0]

	sent := h.SentVideo()
	if len(sent) < 90 {
		t.Fatalf("sent %d frames in 10s at 10fps, want ~100", len(sent))
	}
	if got := len(r.ReceivedVideo()); got < len(sent)*8/10 {
		t.Errorf("received only %d/%d frames", got, len(sent))
	}
	// Traces: host uploads, receiver downloads, at a plausible rate.
	up := h.Trace().Rate(capture.Out)
	down := r.Trace().Rate(capture.In)
	if up < 500_000 || up > 4_000_000 {
		t.Errorf("host upload rate = %.0f", up)
	}
	if down < 500_000 || down > 4_000_000 {
		t.Errorf("receiver download rate = %.0f", down)
	}
	// QoE of the recording is sane.
	rec := RecordSession(h, []*Client{r}, 5)[0]
	res := qoe.NewScorer().CompareVideo(rec.Ref, rec.Displayed, 5)
	if res.PSNR < 20 || res.PSNR > 50 {
		t.Errorf("PSNR = %v", res.PSNR)
	}
	if res.SSIM < 0.5 {
		t.Errorf("SSIM = %v", res.SSIM)
	}
}

func TestEndToEndAudio(t *testing.T) {
	clip := media.NewSpeech(8, rand.New(rand.NewSource(3)))
	host := Config{
		Name: "au-host", Region: geo.USEast,
		SendAudio: true, AudioClip: clip, Seed: 3,
	}
	recv := Config{Name: "au-recv", Region: geo.USCentral, Seed: 4}
	_, h, rs := runSession(t, platform.Zoom, 2, 10*time.Second, host, []Config{recv})
	rec := RecordSession(h, rs, 1)[0]
	if rec.Audio == nil {
		t.Fatal("no audio recording")
	}
	mos := qoe.MOSLQO(rec.RefAudio, rec.Audio)
	if mos < 3.5 {
		t.Errorf("clean-network audio MOS = %v", mos)
	}
}

func TestZoomP2PTwoParty(t *testing.T) {
	host := Config{
		Name: "p2p-a", Region: geo.USEast,
		SendVideo: true, VideoClass: media.LowMotion, Seed: 5,
	}
	recv := Config{Name: "p2p-b", Region: geo.USEast2, Seed: 6}
	_, h, rs := runSession(t, platform.Zoom, 3, 8*time.Second, host, []Config{recv})
	// P2P target is ~1 Mbps vs ~0.7 relay.
	if tgt := h.Attachment().Target(); tgt < 900_000 {
		t.Errorf("p2p target = %v", tgt)
	}
	// The receiver's remote endpoint is the peer itself, not a relay.
	eps := rs[0].Trace().RemoteEndpoints(capture.In)
	if len(eps) != 1 {
		t.Fatalf("remote endpoints = %v", eps)
	}
	if eps[0].IP != capture.IPForName("p2p-a") {
		t.Errorf("p2p remote = %v, want peer's IP", eps[0])
	}
}

func TestReceiverFeedbackDrivesAdaptation(t *testing.T) {
	// Cap the receiver's downlink at 250 kbps; Meet must adapt its
	// ~500 kbps multi-party target downward.
	host := Config{
		Name: "ad-host", Region: geo.USEast,
		SendVideo: true, VideoClass: media.HighMotion, Seed: 7,
	}
	recvs := []Config{
		{Name: "ad-r1", Region: geo.USWest, DownlinkBps: 250_000, QueueBytes: 32 * 1024, Seed: 8},
		{Name: "ad-r2", Region: geo.USCentral, Seed: 9},
	}
	_, h, _ := runSession(t, platform.Meet, 4, 15*time.Second, host, recvs)
	final := h.Attachment().Target()
	if final > 400_000 {
		t.Errorf("Meet did not adapt under a 250k cap: target %v", final)
	}
}

func TestRecordingUnderLoss(t *testing.T) {
	host := Config{
		Name: "ls-host", Region: geo.USEast,
		SendVideo: true, VideoClass: media.HighMotion, Seed: 10,
	}
	recv := Config{Name: "ls-recv", Region: geo.USWest, LossProb: 0.08, Seed: 11}
	_, h, rs := runSession(t, platform.Webex, 5, 10*time.Second, host, []Config{recv})
	rec := RecordSession(h, rs, 5)[0]
	res := qoe.NewScorer().CompareVideo(rec.Ref, rec.Displayed, 5)
	if res.FreezeRatio == 0 {
		t.Error("8% loss should cause freezes")
	}
	// Compare with the clean receiver path of the same content.
	host2 := Config{
		Name: "ls-host2", Region: geo.USEast,
		SendVideo: true, VideoClass: media.HighMotion, Seed: 10,
	}
	recv2 := Config{Name: "ls-recv2", Region: geo.USWest, Seed: 11}
	_, h2, rs2 := runSession(t, platform.Webex, 5, 10*time.Second, host2, []Config{recv2})
	rec2 := RecordSession(h2, rs2, 5)[0]
	clean := qoe.NewScorer().CompareVideo(rec2.Ref, rec2.Displayed, 5)
	if res.SSIM >= clean.SSIM {
		t.Errorf("lossy SSIM %v >= clean SSIM %v", res.SSIM, clean.SSIM)
	}
}

// recordDecoded is the eager recording oracle: it decodes, and so
// builds, every frame c shows of sender's stream.
func recordDecoded(c, sender *Client) []*media.Frame {
	dec := codec.NewVideoDecoder()
	sent := sender.SentVideo()
	shown := make([]*media.Frame, len(sent))
	for i := range sent {
		ef := &sent[i]
		switch {
		case ef.Skipped:
			shown[i] = dec.Decode(ef)
		case c.ReceivedVideo()[ef.Seq] != nil:
			shown[i] = dec.Decode(c.ReceivedVideo()[ef.Seq])
		default:
			shown[i] = dec.Decode(nil)
		}
	}
	return shown
}

// TestRecordSessionMatchesDecode records a session with a lossy and a
// capped receiver both ways: RecordSession, which builds only frames
// shown at scored slots, and decoding every frame. The scores must be
// bit-identical, and the case that needs the union over receivers and
// slots must occur: a frame first shown at an unscored slot and still
// on screen at a later scored one.
func TestRecordSessionMatchesDecode(t *testing.T) {
	const stride = 5
	run := func() (*Client, []*Client) {
		host := Config{
			Name: "rs-host", Region: geo.USEast,
			SendVideo: true, VideoClass: media.HighMotion, Seed: 21,
		}
		recvs := []Config{
			{Name: "rs-lossy", Region: geo.USWest, LossProb: 0.03, Seed: 22},
			{Name: "rs-capped", Region: geo.USCentral, DownlinkBps: 250_000, QueueBytes: 32 * 1024, Seed: 23},
			{Name: "rs-clean", Region: geo.USEast2, Seed: 24},
		}
		_, h, rs := runSession(t, platform.Meet, 9, 15*time.Second, host, recvs)
		return h, rs
	}

	h, rs := run()
	recs := RecordSession(h, rs, stride)
	h2, rs2 := run()
	ref := make([]*media.Frame, len(h2.SentVideo()))
	for i, ef := range h2.SentVideo() {
		ref[i] = ef.Source
	}
	eager := make([][]*media.Frame, len(rs2))
	for r, c := range rs2 {
		eager[r] = recordDecoded(c, h2)
	}

	shown := make([][]*media.Frame, len(recs))
	carried, unbuilt := 0, 0
	for r, rec := range recs {
		shown[r] = rec.Displayed
		firstAt := map[*media.Frame]int{}
		for i, f := range rec.Displayed {
			if (f == nil) != (eager[r][i] == nil) {
				t.Fatalf("receiver %d slot %d: shown nil = %v, decoded nil = %v", r, i, f == nil, eager[r][i] == nil)
			}
			if f == nil {
				continue
			}
			if _, ok := firstAt[f]; !ok {
				firstAt[f] = i
			}
			if f.Pix == nil {
				unbuilt++
			}
			if i%stride != 0 {
				continue
			}
			if !bytes.Equal(f.Pix, eager[r][i].Pix) {
				t.Fatalf("receiver %d slot %d: scored frame differs from the decoded one", r, i)
			}
			if firstAt[f]%stride != 0 {
				carried++
			}
		}
	}
	if carried == 0 {
		t.Error("no frame first shown at an unscored slot is on screen at a scored slot")
	}
	if unbuilt == 0 {
		t.Error("RecordSession built every shown frame")
	}

	got := qoe.NewScorer().CompareSession(recs[0].Ref, shown, stride)
	want := qoe.NewScorer().CompareSession(ref, eager, stride)
	for r := range got {
		if got[r] != want[r] {
			t.Errorf("receiver %d: RecordSession scores %v, decoded scores %v", r, got[r], want[r])
		}
	}
}

func TestMonitorRecordsRTPMetadata(t *testing.T) {
	host := Config{
		Name: "mon-host", Region: geo.USEast,
		SendVideo: true, VideoClass: media.LowMotion, Seed: 12,
	}
	recv := Config{Name: "mon-recv", Region: geo.USEast2, Seed: 13}
	_, _, rs := runSession(t, platform.Webex, 7, 5*time.Second, host, []Config{recv})
	tr := rs[0].Trace()
	withRTP := tr.Filter(func(r capture.Record) bool { return r.HasRTP && r.Dir == capture.In })
	if withRTP.Len() == 0 {
		t.Fatal("no RTP metadata captured")
	}
	// Endpoint IP is from the Webex range.
	eps := withRTP.RemoteEndpoints(capture.In)
	if len(eps) != 1 || eps[0].IP[0] != 66 {
		t.Errorf("webex endpoints = %v", eps)
	}
	if eps[0].Port != 9000 {
		t.Errorf("webex media port = %d", eps[0].Port)
	}
}

func TestStartBeforeJoinPanics(t *testing.T) {
	_, net := testbed(1)
	c := New(net, Config{Name: "x", Region: geo.USEast})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.Start()
}

func TestPcapExportOfSessionTrace(t *testing.T) {
	host := Config{
		Name: "pcap-host", Region: geo.USEast,
		SendVideo: true, VideoClass: media.LowMotion, Seed: 14,
	}
	recv := Config{Name: "pcap-recv", Region: geo.USWest, Seed: 15}
	_, _, rs := runSession(t, platform.Meet, 8, 5*time.Second, host, []Config{recv})
	tr := rs[0].Trace()
	var buf bytes.Buffer
	if err := capture.WritePcap(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, skipped, err := capture.ReadPcap(&buf, tr.Node, capture.IPForName("pcap-recv"))
	if err != nil || skipped != 0 {
		t.Fatalf("read back: %v (skipped %d)", err, skipped)
	}
	if back.Len() != tr.Len() {
		t.Errorf("pcap round trip %d != %d", back.Len(), tr.Len())
	}
}

// panics reports whether f panics.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// pooledSession runs and records one session whose host draws its
// frames from pool (nil allocates) and scores it; it returns the host,
// the indices of the sent frames whose reconstructions were built, and
// the scores.
func pooledSession(t *testing.T, src media.Source, pool *media.FramePool) (*Client, []int, []qoe.VideoResult) {
	const stride = 5
	host := Config{
		Name: "rc-host", Region: geo.USEast,
		SendVideo: true, VideoSource: src, VideoClass: media.HighMotion, Seed: 31, Kit: kit.Kit{Frames: pool},
	}
	recvs := []Config{
		{Name: "rc-lossy", Region: geo.USWest, LossProb: 0.03, Seed: 32},
		{Name: "rc-capped", Region: geo.USCentral, DownlinkBps: 300_000, QueueBytes: 32 * 1024, Seed: 33},
	}
	_, h, rs := runSession(t, platform.Webex, 7, 10*time.Second, host, recvs)
	recs := RecordSession(h, rs, stride)
	shown := make([][]*media.Frame, len(recs))
	for r := range recs {
		shown[r] = recs[r].Displayed
	}
	scores := qoe.NewScorer().CompareSession(recs[0].Ref, shown, stride)
	var built []int
	sent := h.SentVideo()
	for i := range sent {
		if !sent[i].Skipped && !panics(func() { sent[i].Recon() }) {
			built = append(built, i)
		}
	}
	return h, built, scores
}

// TestResetReturnsSessionStorage resets a host whose frames came from a
// lent pool, after its session was recorded and scored. The scores must
// equal an unpooled host's; every source frame and every built
// reconstruction must be back in the pool without pixels; and reading
// one must panic rather than show another frame's pixels.
func TestResetReturnsSessionStorage(t *testing.T) {
	_, _, want := pooledSession(t, nil, nil)
	pool := media.NewFramePool()
	h, built, got := pooledSession(t, nil, pool)
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("receiver %d: pooled host scores %v, unpooled %v", r, got[r], want[r])
		}
	}
	sent := h.SentVideo()
	if len(built) == 0 {
		t.Fatal("no reconstruction was built")
	}
	full := sent[0].Source.W * sent[0].Source.H
	if n := pool.Parked()[full]; n != 0 {
		t.Fatalf("%d full-size buffers parked while the session's frames are live", n)
	}

	recon := sent[built[0]].Recon()
	h.Reset()
	if n, want := pool.Parked()[full], len(sent)+len(built); n != want {
		t.Errorf("Reset parked %d full-size buffers, want %d sources + %d reconstructions", n, len(sent), len(built))
	}
	for i := range sent {
		if sent[i].Source.Pix != nil {
			t.Fatalf("source frame %d kept its pixels after Reset", i)
		}
	}
	src, k := sent[built[0]].Source, built[0]
	for _, c := range []struct {
		name string
		read func()
	}{
		{"pixel of a returned source", func() { src.At(0, 0) }},
		{"score of a returned source", func() { qoe.PSNR(src, src) }},
		{"score of a returned reconstruction", func() { qoe.PSNR(recon, recon) }},
		{"Recon of a returned frame", func() { sent[k].Recon() }},
		{"returning the sources twice", func() { h.sent = sent; h.Reset() }},
	} {
		if !panics(c.read) {
			t.Errorf("%s: no panic", c.name)
		}
	}
}

// TestResetKeepsExplicitSourceFrames runs a pooled host on an explicit
// source, the flash feed, whose two frames live as long as the source:
// Reset must return only the built reconstructions and leave the
// source's frames their pixels.
func TestResetKeepsExplicitSourceFrames(t *testing.T) {
	pool := media.NewFramePool()
	h, built, _ := pooledSession(t, media.NewFlash(media.QuickProfile, 2.0), pool)
	sent := h.SentVideo()
	h.Reset()
	full := sent[0].Source.W * sent[0].Source.H
	if n := pool.Parked()[full]; n != len(built) {
		t.Errorf("Reset parked %d full-size buffers, want the %d built reconstructions", n, len(built))
	}
	for i := range sent {
		if len(sent[i].Source.Pix) != full {
			t.Fatalf("flash frame %d lost its pixels", i)
		}
	}
}
