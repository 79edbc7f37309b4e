package capture

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)

func mkRecord(at time.Duration, dir Dir, srcPort, dstPort uint16, size int) Record {
	return Record{
		UnixNano: t0.Add(at).UnixNano(),
		Dir:      dir,
		Src:      Endpoint{IP: IPForName("src"), Port: srcPort},
		Dst:      Endpoint{IP: IPForName("dst"), Port: dstPort},
		Len:      size,
	}
}

func TestIPForName(t *testing.T) {
	a, b := IPForName("vm-1"), IPForName("vm-2")
	if a == b {
		t.Error("distinct names map to same IP")
	}
	if a != IPForName("vm-1") {
		t.Error("IPForName not deterministic")
	}
	if a[0] != 10 {
		t.Errorf("not in 10/8: %v", a)
	}
	for _, o := range a[1:] {
		if o == 0 || o == 255 {
			t.Errorf("degenerate octet in %v", a)
		}
	}
}

func TestTraceRates(t *testing.T) {
	tr := NewTrace("n")
	// 10 inbound packets of 1250 bytes over 1 second => 100 kbit/s.
	for i := 0; i < 10; i++ {
		tr.Add(mkRecord(time.Duration(i)*111*time.Millisecond, In, 8801, 5004, 1250))
	}
	rate := tr.Rate(In)
	want := float64(10*1250*8) / tr.Record(9).Time().Sub(tr.Record(0).Time()).Seconds()
	if rate != want {
		t.Errorf("Rate = %v, want %v", rate, want)
	}
	if tr.Rate(Out) != 0 {
		t.Error("no outbound records but nonzero rate")
	}
	if tr.Bytes(In) != 12500 || tr.Packets(In) != 10 {
		t.Error("byte/packet accounting wrong")
	}
}

func TestTraceBetweenAndFilter(t *testing.T) {
	tr := NewTrace("n")
	for i := 0; i < 10; i++ {
		tr.Add(mkRecord(time.Duration(i)*time.Second, In, 1, 2, 100+i))
	}
	sub := tr.Between(t0.Add(3*time.Second), t0.Add(6*time.Second))
	if sub.Len() != 3 {
		t.Errorf("Between len = %d, want 3", sub.Len())
	}
	big := tr.Filter(func(r Record) bool { return r.Len >= 105 })
	if big.Len() != 5 {
		t.Errorf("Filter len = %d, want 5", big.Len())
	}
}

func TestRemoteEndpoints(t *testing.T) {
	tr := NewTrace("n")
	ep1 := Endpoint{IP: IPv4{1, 2, 3, 4}, Port: 8801}
	ep2 := Endpoint{IP: IPv4{5, 6, 7, 8}, Port: 8801}
	local := Endpoint{IP: IPForName("n"), Port: 5004}
	ns := t0.UnixNano()
	ms := time.Millisecond.Nanoseconds()
	tr.Add(Record{UnixNano: ns, Dir: In, Src: ep1, Dst: local, Len: 10})
	tr.Add(Record{UnixNano: ns + ms, Dir: In, Src: ep2, Dst: local, Len: 10})
	tr.Add(Record{UnixNano: ns + 2*ms, Dir: In, Src: ep1, Dst: local, Len: 10})
	tr.Add(Record{UnixNano: ns + 3*ms, Dir: Out, Src: local, Dst: ep1, Len: 10})
	eps := tr.RemoteEndpoints(In)
	if len(eps) != 2 || eps[0] != ep1 || eps[1] != ep2 {
		t.Errorf("RemoteEndpoints = %v", eps)
	}
}

func TestBurstDetection(t *testing.T) {
	// Keepalives every 100ms (60B), flashes at 2s, 4s, 6s (5 big packets each).
	var recs []Record
	for i := 0; i < 80; i++ {
		recs = append(recs, mkRecord(time.Duration(i)*100*time.Millisecond, Out, 5004, 8801, 60))
	}
	for _, flashAt := range []time.Duration{2 * time.Second, 4 * time.Second, 6 * time.Second} {
		for k := 0; k < 5; k++ {
			recs = append(recs, mkRecord(flashAt+time.Duration(k)*5*time.Millisecond, Out, 5004, 8801, 900))
		}
	}
	// Restore time order (the flashes were appended after the keepalives).
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].UnixNano < recs[j].UnixNano })
	tr := NewTrace("host")
	for _, r := range recs {
		tr.Add(r)
	}
	bursts := Bursts(tr, Out, DefaultBurstConfig)
	if len(bursts) != 3 {
		t.Fatalf("bursts = %d, want 3 (%v)", len(bursts), bursts)
	}
	for i, want := range []time.Duration{2 * time.Second, 4 * time.Second, 6 * time.Second} {
		if got := bursts[i].Sub(t0); got != want {
			t.Errorf("burst %d at %v, want %v", i, got, want)
		}
	}
}

func TestMatchBursts(t *testing.T) {
	s := []time.Time{t0, t0.Add(2 * time.Second), t0.Add(4 * time.Second)}
	r := []time.Time{t0.Add(30 * time.Millisecond), t0.Add(2*time.Second + 40*time.Millisecond), t0.Add(4*time.Second + 50*time.Millisecond)}
	lags := MatchBursts(s, r, time.Second)
	if len(lags) != 3 {
		t.Fatalf("lags = %v", lags)
	}
	if lags[0] != 30*time.Millisecond || lags[2] != 50*time.Millisecond {
		t.Errorf("lags = %v", lags)
	}
}

func TestMatchBurstsResync(t *testing.T) {
	// Second flash lost in transit; a spurious early receiver burst too.
	s := []time.Time{t0, t0.Add(2 * time.Second), t0.Add(4 * time.Second)}
	r := []time.Time{
		t0.Add(-500 * time.Millisecond), // spurious
		t0.Add(25 * time.Millisecond),
		// flash at 2s lost
		t0.Add(4*time.Second + 35*time.Millisecond),
	}
	lags := MatchBursts(s, r, time.Second)
	if len(lags) != 2 {
		t.Fatalf("lags = %v, want 2 entries", lags)
	}
	if lags[0] != 25*time.Millisecond || lags[1] != 35*time.Millisecond {
		t.Errorf("lags = %v", lags)
	}
}

func TestLagsEndToEnd(t *testing.T) {
	sender, recv := NewTrace("h"), NewTrace("c")
	lag := 42 * time.Millisecond
	for i := 0; i < 5; i++ {
		at := time.Duration(i) * 2 * time.Second
		sender.Add(mkRecord(at, Out, 5004, 8801, 900))
		recv.Add(mkRecord(at+lag, In, 8801, 5004, 880))
	}
	lags := Lags(sender, recv, DefaultBurstConfig, time.Second)
	if len(lags) != 5 {
		t.Fatalf("got %d lags", len(lags))
	}
	for _, l := range lags {
		if l != lag {
			t.Errorf("lag = %v, want %v", l, lag)
		}
	}
}

func TestDiscoverEndpoints(t *testing.T) {
	mk := func(ep Endpoint) *Trace {
		tr := NewTrace("c")
		tr.Add(Record{UnixNano: t0.UnixNano(), Dir: In, Src: ep, Dst: Endpoint{IPForName("c"), 5004}, Len: 500,
			HasRTP: true, RTP: RTPInfo{SSRC: 7}})
		return tr
	}
	// Zoom-like: new endpoint every session.
	var zoomSessions []*Trace
	for i := 0; i < 20; i++ {
		zoomSessions = append(zoomSessions, mk(Endpoint{IPv4{170, 114, 1, byte(i + 1)}, 8801}))
	}
	st := DiscoverEndpoints(zoomSessions)
	if st.Total != 20 || st.PerSession != 1 || st.Sessions != 20 {
		t.Errorf("zoom-like stats = %+v", st)
	}
	// Meet-like: same endpoint every session.
	var meetSessions []*Trace
	for i := 0; i < 20; i++ {
		meetSessions = append(meetSessions, mk(Endpoint{IPv4{142, 250, 1, 1}, 19305}))
	}
	st = DiscoverEndpoints(meetSessions)
	if st.Total != 1 {
		t.Errorf("meet-like total = %d", st.Total)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rec := Record{
		UnixNano: t0.Add(1234567 * time.Microsecond).UnixNano(),
		Dir:      Out,
		Src:      Endpoint{IP: IPv4{10, 1, 2, 3}, Port: 5004},
		Dst:      Endpoint{IP: IPv4{170, 114, 9, 9}, Port: 8801},
		Len:      777,
		HasRTP:   true,
		RTP:      RTPInfo{SSRC: 0xdeadbeef, Seq: 4242, TS: 90000, Marker: true, PT: 96},
	}
	data := EncodeRecord(rec)
	back, err := decodeRecord(rec.UnixNano, data, rec.Src.IP)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back != rec {
		t.Errorf("round trip mismatch: %+v vs %+v", back, rec)
	}
	// The frame is Ethernet/IPv4/UDP/RTP with media bytes after the RTP
	// header, sized by the UDP length field.
	if udpLen := int(binary.BigEndian.Uint16(data[ethHeaderLen+ipHeaderLen+4:])); udpLen != udpHeaderLen+rec.Len {
		t.Errorf("UDP length field = %d, want %d", udpLen, udpHeaderLen+rec.Len)
	}
	if payload := len(data) - ethHeaderLen - ipHeaderLen - udpHeaderLen - rtpHeaderLen; payload <= 0 {
		t.Errorf("no media payload after the RTP header (%d bytes)", payload)
	}
	// Any other source address reads as inbound.
	if in, err := decodeRecord(rec.UnixNano, data, rec.Dst.IP); err != nil || in.Dir != In {
		t.Errorf("decoded at the receiver: dir %v, err %v; want In", in.Dir, err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	if _, err := decodeRecord(t0.UnixNano(), []byte{1, 2, 3}, IPv4{}); err != ErrTruncated {
		t.Errorf("err = %v", err)
	}
	// Valid ethernet but ARP ethertype.
	data := make([]byte, 20)
	data[12], data[13] = 0x08, 0x06
	if _, err := decodeRecord(t0.UnixNano(), data, IPv4{}); err != ErrNotIPv4 {
		t.Errorf("err = %v", err)
	}
	// IPv4 carrying TCP.
	data = EncodeRecord(mkRecord(0, Out, 1, 2, 64))
	data[ethHeaderLen+9] = 6
	if _, err := decodeRecord(t0.UnixNano(), data, IPv4{}); err != ErrNotUDP {
		t.Errorf("err = %v", err)
	}
	// IPv4 cut inside the UDP header.
	data = EncodeRecord(mkRecord(0, Out, 1, 2, 64))[:ethHeaderLen+ipHeaderLen+4]
	if _, err := decodeRecord(t0.UnixNano(), data, IPv4{}); err != ErrTruncated {
		t.Errorf("err = %v", err)
	}
}

// A UDP length field below the 8-byte header would give a negative
// payload length; ReadPcap skips and counts such a packet.
func TestReadPcapSkipsShortUDPLength(t *testing.T) {
	tr := NewTrace("vm")
	tr.Add(mkRecord(0, Out, 1, 2, 64))
	tr.Add(mkRecord(time.Second, Out, 1, 2, 80))
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The first record's UDP length field sits after the file header,
	// the record header and the Ethernet and IPv4 headers.
	at := pcapHdrLen + pcapRecHdrLen + ethHeaderLen + ipHeaderLen + 4
	raw[at], raw[at+1] = 0, 7
	back, skipped, err := ReadPcap(bytes.NewReader(raw), "vm", IPv4{})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 || back.Len() != 1 || back.Record(0).Len != 80 {
		t.Errorf("skipped %d, kept %d records (first Len %d); want 1 skipped and the 80-byte record kept",
			skipped, back.Len(), back.Record(0).Len)
	}
	if got := back.Bytes(In); got != 80 {
		t.Errorf("trace bytes = %d, want 80", got)
	}
}

func TestIPChecksum(t *testing.T) {
	rec := mkRecord(0, Out, 1, 2, 64)
	data := EncodeRecord(rec)
	ip := data[14:34]
	// Recomputing over the header including the stored checksum must give
	// 0xffff-complement consistency: sum of all 16-bit words == 0xffff.
	var sum uint32
	for i := 0; i < 20; i += 2 {
		sum += uint32(ip[i])<<8 | uint32(ip[i+1])
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	if sum != 0xffff {
		t.Errorf("IP checksum does not verify: %#x", sum)
	}
}

func TestPcapRoundTrip(t *testing.T) {
	tr := NewTrace("vm")
	local := IPForName("vm")
	remote := IPv4{66, 114, 1, 1}
	for i := 0; i < 50; i++ {
		dir := In
		src := Endpoint{remote, 9000}
		dst := Endpoint{local, 5004}
		if i%2 == 1 {
			dir = Out
			src, dst = dst, src
		}
		tr.Add(Record{
			UnixNano: t0.Add(time.Duration(i) * 20 * time.Millisecond).UnixNano(),
			Dir:      dir, Src: src, Dst: dst, Len: 800 + i,
			HasRTP: i%5 != 0, // every fifth record carries no RTP header
			RTP:    RTPInfo{SSRC: 1, Seq: uint16(i), TS: uint32(i * 3000), Marker: i%3 == 0, PT: 96},
		})
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, skipped, err := ReadPcap(&buf, "vm", local)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d", skipped)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("len %d vs %d", back.Len(), tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		// Without an RTP header the payload is zero padding, so only
		// records with one carry RTP fields through the file.
		want := tr.Record(i)
		if !want.HasRTP {
			want.RTP = RTPInfo{}
		}
		if got := back.Record(i); got != want {
			t.Fatalf("record %d mismatch:\n%+v\n%+v", i, got, want)
		}
	}
}

func TestReadPcapBadMagic(t *testing.T) {
	if _, _, err := ReadPcap(bytes.NewReader(make([]byte, 24)), "n", IPv4{}); err != ErrBadMagic {
		t.Errorf("err = %v", err)
	}
}

// Property: encode/decode round-trips arbitrary record shapes.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(srcIP, dstIP [4]byte, srcPort, dstPort uint16, size uint16, seq uint16, ssrc uint32, marker bool) bool {
		rec := Record{
			UnixNano: t0.UnixNano(),
			Src:      Endpoint{IPv4(srcIP), srcPort},
			Dst:      Endpoint{IPv4(dstIP), dstPort},
			Len:      int(size % 1500),
			HasRTP:   true,
			RTP:      RTPInfo{SSRC: ssrc, Seq: seq, Marker: marker, PT: 96},
		}
		data := EncodeRecord(rec)
		back, err := decodeRecord(t0.UnixNano(), data, IPv4{})
		if err != nil {
			return false
		}
		wantLen := rec.Len
		if wantLen < 12 {
			wantLen = 12 // RTP header floor
		}
		return back.Src == rec.Src && back.Dst == rec.Dst && back.Len == wantLen &&
			back.HasRTP && back.RTP.Seq == seq && back.RTP.SSRC == ssrc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSizeSeries(t *testing.T) {
	tr := NewTrace("n")
	tr.Add(mkRecord(0, Out, 1, 2, 100))
	tr.Add(mkRecord(time.Second, Out, 1, 2, 900))
	tr.Add(mkRecord(2*time.Second, In, 2, 1, 50))
	times, sizes := SizeSeries(tr, Out)
	if len(times) != 2 || sizes[1] != 900 || times[1] != time.Second {
		t.Errorf("series: %v %v", times, sizes)
	}
}

// ParseIPv4 is the strict replacement for Sscanf-based parsing in
// cmd/vcatrace: trailing garbage and out-of-range octets must fail.
func TestParseIPv4(t *testing.T) {
	good := map[string]IPv4{
		"0.0.0.0":         {0, 0, 0, 0},
		"1.2.3.4":         {1, 2, 3, 4},
		"10.200.30.255":   {10, 200, 30, 255},
		"255.255.255.255": {255, 255, 255, 255},
	}
	for in, want := range good {
		got, err := ParseIPv4(in)
		if err != nil || got != want {
			t.Errorf("ParseIPv4(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	bad := []string{
		"",
		"1.2.3",
		"1.2.3.4.5", // trailing extra octet (Sscanf accepted this)
		"999.0.0.1", // out-of-range octet (Sscanf truncated this)
		"256.1.1.1",
		"1.2.3.4 ",
		" 1.2.3.4",
		"1..3.4",
		"1.2.3.04", // leading zero
		"01.2.3.4",
		"+1.2.3.4",
		"-1.2.3.4",
		"1.2.3.4x",
		"a.b.c.d",
		"1.2.3.1234",
	}
	for _, in := range bad {
		if got, err := ParseIPv4(in); err == nil {
			t.Errorf("ParseIPv4(%q) = %v, want error", in, got)
		}
	}
}
