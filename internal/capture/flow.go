// Package capture is the traffic-monitoring substrate: in-memory packet
// traces (what tcpdump gave the paper), libpcap-format file I/O with fully
// synthesized Ethernet/IPv4/UDP/RTP bytes decoded straight back into
// trace records, and the trace analytics the paper's measurements are built on
// (L7 data rates, endpoint discovery, and the Fig-2 "first big packet
// after a quiescent period" lag extractor).
package capture

import (
	"fmt"
	"hash/fnv"
	"net/netip"
)

// IPv4 is a four-byte address. Simulated nodes get deterministic addresses
// from IPForName; platform models may assign their own ranges.
type IPv4 [4]byte

func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// ParseIPv4 parses a dotted-quad address strictly: exactly four decimal
// octets in [0, 255], no leading zeros (octal ambiguity), no signs, no
// whitespace, no trailing garbage. This is deliberately stricter than
// fmt.Sscanf("%d.%d.%d.%d"), which accepts "1.2.3.4.5" (trailing data
// ignored) and "999.0.0.1" (out-of-range octets truncated to a byte).
func ParseIPv4(s string) (IPv4, error) {
	a, err := netip.ParseAddr(s)
	if err != nil || !a.Is4() { // Is4 also excludes 4-in-6 forms
		return IPv4{}, fmt.Errorf("capture: %q is not a dotted-quad IPv4 address", s)
	}
	return IPv4(a.As4()), nil
}

// IPForName deterministically maps a node name into the 10.0.0.0/8 range,
// avoiding .0 and .255 host bytes.
func IPForName(name string) IPv4 {
	h := fnv.New32a()
	h.Write([]byte(name))
	v := h.Sum32()
	b := func(x uint32) byte { return byte(x%253 + 1) }
	return IPv4{10, b(v), b(v >> 8), b(v >> 16)}
}

// Endpoint is one side of a UDP conversation.
type Endpoint struct {
	IP   IPv4
	Port uint16
}

func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.IP, e.Port) }
