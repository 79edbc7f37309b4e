package client

import (
	"testing"
	"time"

	"github.com/vcabench/vcabench/internal/capture"
	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/rtp"
	"github.com/vcabench/vcabench/internal/simnet"
)

// capturedPacket is one packet a monitor's tap sees.
type capturedPacket struct {
	dir simnet.Direction
	pkt *simnet.Packet
	at  time.Time
}

// sessionTraffic returns n packets of a media session as the capture
// tap sees them: two RTP media packets (one out, one in) for every
// keepalive, 10 ms apart, so n records span several chunks.
func sessionTraffic(n int) []capturedPacket {
	t0 := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	out := make([]capturedPacket, n)
	for i := range out {
		p := &simnet.Packet{
			From: simnet.Addr{Node: "mon", Port: MediaPort},
			To:   simnet.Addr{Node: "relay", Port: 8801},
			Size: 60,
		}
		dir := simnet.DirOut
		if i%3 != 2 {
			p.Size = 900 + i%300
			p.Payload = &rtp.Packet{Info: capture.RTPInfo{SSRC: 7, Seq: uint16(i), TS: uint32(i) * 3000}}
			if i%3 == 1 {
				dir = simnet.DirIn
				p.From, p.To = p.To, p.From
			}
		}
		out[i] = capturedPacket{dir: dir, pkt: p, at: t0.Add(time.Duration(i) * 10 * time.Millisecond)}
	}
	return out
}

// newTestMonitor returns a monitor on a fresh node of its own network.
func newTestMonitor(store *capture.Store) *Monitor {
	_, net := testbed(1)
	return NewMonitor(net.AddNode(simnet.NodeConfig{Name: "mon", Region: geo.USEast}), nil, store)
}

func (m *Monitor) capture(traffic []capturedPacket) {
	for _, c := range traffic {
		m.record(c.dir, c.pkt, c.at)
	}
}

// scribble overwrites every record of every chunk the store parks with
// junk.
func scribble(s *capture.Store) {
	for _, c := range s.Parked() {
		for i := range c {
			c[i] = capture.Record{Dir: 7, Len: -1, HasRTP: true, RTP: capture.RTPInfo{SSRC: 0xbad, Seq: 0xbad}}
		}
	}
}

// TestReleasedTraceHasNoRecords: Release leaves the trace empty and
// parks every chunk in the store.
func TestReleasedTraceHasNoRecords(t *testing.T) {
	store := capture.NewStore()
	m := newTestMonitor(store)
	traffic := sessionTraffic(3000)
	m.capture(traffic)
	if got := m.Trace().Len(); got != len(traffic) {
		t.Fatalf("captured %d records, want %d", got, len(traffic))
	}
	m.Release()
	if n := m.Trace().Len(); n != 0 {
		t.Errorf("released trace holds %d records, want 0", n)
	}
	wantChunks := (len(traffic) + capture.ChunkLen - 1) / capture.ChunkLen
	if n := len(store.Parked()); n != wantChunks {
		t.Errorf("store parks %d chunks, want %d", n, wantChunks)
	}
}

// TestCaptureAfterReleaseUsesFreshStorage: a packet captured after
// Release lands on new storage, never on a chunk given back, and the
// store keeps everything it was given.
func TestCaptureAfterReleaseUsesFreshStorage(t *testing.T) {
	store := capture.NewStore()
	m := newTestMonitor(store)
	traffic := sessionTraffic(3000)
	m.capture(traffic)
	m.Release()
	nChunks := len(store.Parked())

	first := traffic[0] // an RTP packet
	m.capture(traffic[:1])
	scribble(store)
	tr := m.Trace()
	if tr.Len() != 1 || !tr.Record(0).HasRTP {
		t.Fatalf("post-release capture holds %d records, want one RTP record", tr.Len())
	}
	if r := tr.Record(0); r.Len != first.pkt.Size || r.Dir != capture.Out {
		t.Errorf("post-release record reads %+v after the given-back chunks were overwritten", r)
	}
	if got, want := tr.Record(0).RTP, first.pkt.Payload.(*rtp.Packet).Info; got != want {
		t.Errorf("post-release RTP header reads %+v after the given-back chunks were overwritten, want %+v", got, want)
	}
	if n := len(store.Parked()); n != nChunks {
		t.Errorf("store parks %d chunks after a post-release capture, want %d", n, nChunks)
	}
}

// TestWarmCaptureStorageRecordsWithoutAllocating: once a store holds a
// session's storage, a monitor on it captures that session without
// allocating.
func TestWarmCaptureStorageRecordsWithoutAllocating(t *testing.T) {
	store := capture.NewStore()
	traffic := sessionTraffic(2000)
	warm := newTestMonitor(store)
	warm.capture(sessionTraffic(2 * len(traffic)))
	warm.Release()
	m := newTestMonitor(store)
	// AllocsPerRun captures the session twice: once to warm up, once
	// measured.
	if n := testing.AllocsPerRun(1, func() { m.capture(traffic) }); n != 0 {
		t.Errorf("a session's capture on warm storage allocates %v times, want 0", n)
	}
}
