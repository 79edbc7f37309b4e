package capture

import (
	"bytes"
	"testing"
	"time"
)

// FuzzParseIPv4 feeds arbitrary strings to the strict dotted-quad
// parser: it must never panic, and every address it accepts must
// round-trip through its String form to the same four bytes.
func FuzzParseIPv4(f *testing.F) {
	for _, seed := range []string{
		"1.2.3.4", "0.0.0.0", "255.255.255.255", "10.0.0.1",
		"999.0.0.1", "1.2.3.4.5", "01.2.3.4", " 1.2.3.4", "1.2.3.4 ",
		"-1.2.3.4", "1.2.3", "::ffff:1.2.3.4", "1.2.3.0x4", "", "....",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ip, err := ParseIPv4(s)
		if err != nil {
			return
		}
		back, err := ParseIPv4(ip.String())
		if err != nil {
			t.Fatalf("ParseIPv4(%q) accepted as %v, whose String %q does not re-parse: %v",
				s, ip, ip.String(), err)
		}
		if back != ip {
			t.Fatalf("round trip drifted: %q -> %v -> %v", s, ip, back)
		}
	})
}

// FuzzReadPcap feeds arbitrary bytes to the pcap reader, which parses
// files from outside the program: it must never panic, and every record
// it keeps must have a non-negative length.
func FuzzReadPcap(f *testing.F) {
	tr := NewTrace("vm")
	tr.Add(Record{UnixNano: t0.UnixNano(), Dir: Out, Src: Endpoint{IPForName("vm"), 5004}, Dst: Endpoint{IPv4{66, 114, 1, 1}, 9000},
		Len: 120, HasRTP: true, RTP: RTPInfo{SSRC: 7, Seq: 1, PT: 96}})
	tr.Add(Record{UnixNano: t0.Add(time.Millisecond).UnixNano(), Dir: In, Src: Endpoint{IPv4{66, 114, 1, 1}, 9000},
		Dst: Endpoint{IPForName("vm"), 5004}, Len: 3})
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:pcapHdrLen])
	f.Add(valid[:len(valid)-5])
	short := bytes.Clone(valid)
	at := pcapHdrLen + pcapRecHdrLen + ethHeaderLen + ipHeaderLen + 4
	short[at], short[at+1] = 0, 0
	f.Add(short)
	f.Add(make([]byte, pcapHdrLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		back, _, _ := ReadPcap(bytes.NewReader(data), "vm", IPForName("vm"))
		if back == nil {
			return
		}
		for i := 0; i < back.Len(); i++ {
			if r := back.Record(i); r.Len < 0 {
				t.Fatalf("record %d has Len %d", i, r.Len)
			}
		}
	})
}
