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
// keepalive, 10 ms apart, so n records span several RTP chunks.
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

// scribble overwrites every record array and RTP chunk the store parks,
// over their full capacity, with junk.
func scribble(s *capture.Store) {
	records, chunks := s.Parked()
	junkRTP := &capture.RTPInfo{SSRC: 0xbad, Seq: 0xbad}
	for _, r := range records {
		r = r[:cap(r)]
		for i := range r {
			r[i] = capture.Record{Dir: 7, Len: -1, RTP: junkRTP}
		}
	}
	for _, c := range chunks {
		c = c[:cap(c)]
		for i := range c {
			c[i] = *junkRTP
		}
	}
}

// TestReleasedTraceHasNoRecords: Release leaves the trace empty and
// parks the record array and every RTP chunk in the store.
func TestReleasedTraceHasNoRecords(t *testing.T) {
	store := capture.NewStore()
	m := newTestMonitor(store)
	traffic := sessionTraffic(3000)
	m.capture(traffic)
	if got := m.Trace().Len(); got != len(traffic) {
		t.Fatalf("captured %d records, want %d", got, len(traffic))
	}
	m.Release()
	if tr := m.Trace(); tr.Records != nil || tr.Len() != 0 {
		t.Errorf("released trace holds %d records (nil: %v), want nil Records", tr.Len(), tr.Records == nil)
	}
	records, chunks := store.Parked()
	wantChunks := (2*len(traffic)/3 + rtpSlabChunk - 1) / rtpSlabChunk
	if len(records) != 1 || cap(records[0]) < len(traffic) || len(chunks) != wantChunks {
		t.Errorf("store parks %d record arrays and %d RTP chunks, want 1 array of at least %d records and %d chunks",
			len(records), len(chunks), len(traffic), wantChunks)
	}
}

// TestCaptureAfterReleaseUsesFreshStorage: a packet captured after
// Release lands on new storage, never on an array or chunk given back,
// and the store keeps everything it was given.
func TestCaptureAfterReleaseUsesFreshStorage(t *testing.T) {
	store := capture.NewStore()
	m := newTestMonitor(store)
	traffic := sessionTraffic(3000)
	m.capture(traffic)
	m.Release()
	parkedRecords, parkedChunks := store.Parked()
	nRecords, nChunks := len(parkedRecords), len(parkedChunks)

	first := traffic[0] // an RTP packet
	m.capture(traffic[:1])
	scribble(store)
	tr := m.Trace()
	if tr.Len() != 1 || tr.Records[0].RTP == nil {
		t.Fatalf("post-release capture holds %d records, want one RTP record", tr.Len())
	}
	if r := tr.Records[0]; r.Len != first.pkt.Size || r.Dir != capture.Out {
		t.Errorf("post-release record reads %+v after the given-back arrays were overwritten", r)
	}
	if got, want := *tr.Records[0].RTP, first.pkt.Payload.(*rtp.Packet).Info; got != want {
		t.Errorf("post-release RTP header reads %+v after the given-back chunks were overwritten, want %+v", got, want)
	}
	if r, c := store.Parked(); len(r) != nRecords || len(c) != nChunks {
		t.Errorf("store parks %d arrays and %d chunks after a post-release capture, want %d and %d",
			len(r), len(c), nRecords, nChunks)
	}
}

// TestWarmCaptureStorageRecordsWithoutAllocating: once a store holds a
// session's storage, capturing that session again allocates nothing.
func TestWarmCaptureStorageRecordsWithoutAllocating(t *testing.T) {
	store := capture.NewStore()
	m := newTestMonitor(store)
	traffic := sessionTraffic(3000)
	session := func() {
		m.store = store // Release leaves the store; rejoin it
		m.capture(traffic)
		m.Release()
	}
	session()
	if n := testing.AllocsPerRun(5, session); n != 0 {
		t.Errorf("a session's capture on warm storage allocates %v times, want 0", n)
	}
}
