package capture

import (
	"encoding/binary"
	"errors"
)

// Decoding errors.
var (
	ErrTruncated    = errors.New("capture: truncated packet")
	ErrNotIPv4      = errors.New("capture: not an IPv4 packet")
	ErrNotUDP       = errors.New("capture: not a UDP packet")
	errBadUDPLength = errors.New("capture: UDP length field below the 8-byte header")
)

const (
	etherTypeIPv4 = 0x0800
	protoUDP      = 17
	ethHeaderLen  = 14
	ipHeaderLen   = 20
	udpHeaderLen  = 8
	rtpHeaderLen  = 12
)

// decodeRecord decodes one Ethernet/IPv4/UDP frame, captured at
// unixNano, straight into a trace record, with RTP metadata when the
// UDP payload looks like RTP (version 2, at least 12 bytes). Packets sourced from localIP
// are Out, all others In. Len comes from the UDP length field, so a
// capture truncated by its snaplen still reports the datagram's size.
// A frame that is not a well-formed UDP datagram is an error.
func decodeRecord(unixNano int64, data []byte, localIP IPv4) (Record, error) {
	if len(data) < ethHeaderLen {
		return Record{}, ErrTruncated
	}
	if binary.BigEndian.Uint16(data[12:14]) != etherTypeIPv4 {
		return Record{}, ErrNotIPv4
	}
	// IPv4 (no options in our synthesized traffic, but honor IHL).
	ip := data[ethHeaderLen:]
	if len(ip) < ipHeaderLen {
		return Record{}, ErrTruncated
	}
	ihl := int(ip[0]&0x0f) * 4
	if ip[0]>>4 != 4 || ihl < ipHeaderLen || len(ip) < ihl {
		return Record{}, ErrNotIPv4
	}
	if ip[9] != protoUDP {
		return Record{}, ErrNotUDP
	}
	udp := ip[ihl:]
	if len(udp) < udpHeaderLen {
		return Record{}, ErrTruncated
	}
	udpLen := int(binary.BigEndian.Uint16(udp[4:6]))
	if udpLen < udpHeaderLen {
		return Record{}, errBadUDPLength
	}
	r := Record{
		UnixNano: unixNano,
		Dir:      In,
		Src:      Endpoint{IP: IPv4(ip[12:16]), Port: binary.BigEndian.Uint16(udp[0:2])},
		Dst:      Endpoint{IP: IPv4(ip[16:20]), Port: binary.BigEndian.Uint16(udp[2:4])},
		Len:      udpLen - udpHeaderLen,
	}
	if r.Src.IP == localIP {
		r.Dir = Out
	}
	if b := udp[udpHeaderLen:]; len(b) >= rtpHeaderLen && b[0]>>6 == 2 {
		r.HasRTP = true
		r.RTP = RTPInfo{
			SSRC:   binary.BigEndian.Uint32(b[8:12]),
			Seq:    binary.BigEndian.Uint16(b[2:4]),
			TS:     binary.BigEndian.Uint32(b[4:8]),
			Marker: b[1]&0x80 != 0,
			PT:     b[1] & 0x7f,
		}
	}
	return r, nil
}

// EncodeRecord synthesizes full Ethernet/IPv4/UDP(/RTP) wire bytes for a
// trace record, suitable for writing to a pcap file. The UDP payload is
// Len bytes: an RTP header (when HasRTP) followed by zero padding
// standing in for the encrypted media the paper could not inspect
// either.
func EncodeRecord(r Record) []byte {
	l7 := r.Len
	if r.HasRTP && l7 < rtpHeaderLen {
		l7 = rtpHeaderLen
	}
	total := ethHeaderLen + ipHeaderLen + udpHeaderLen + l7
	buf := make([]byte, total)
	// Ethernet: derive stable MACs from the IPs.
	copy(buf[0:6], macFor(r.Dst.IP))
	copy(buf[6:12], macFor(r.Src.IP))
	binary.BigEndian.PutUint16(buf[12:14], etherTypeIPv4)
	// IPv4.
	ip := buf[ethHeaderLen:]
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:4], uint16(ipHeaderLen+udpHeaderLen+l7))
	ip[8] = 64
	ip[9] = protoUDP
	copy(ip[12:16], r.Src.IP[:])
	copy(ip[16:20], r.Dst.IP[:])
	binary.BigEndian.PutUint16(ip[10:12], ipChecksum(ip[:ipHeaderLen]))
	// UDP.
	udp := ip[ipHeaderLen:]
	binary.BigEndian.PutUint16(udp[0:2], r.Src.Port)
	binary.BigEndian.PutUint16(udp[2:4], r.Dst.Port)
	binary.BigEndian.PutUint16(udp[4:6], uint16(udpHeaderLen+l7))
	// RTP.
	if r.HasRTP {
		rtp := udp[udpHeaderLen:]
		rtp[0] = 2 << 6
		rtp[1] = r.RTP.PT & 0x7f
		if r.RTP.Marker {
			rtp[1] |= 0x80
		}
		binary.BigEndian.PutUint16(rtp[2:4], r.RTP.Seq)
		binary.BigEndian.PutUint32(rtp[4:8], r.RTP.TS)
		binary.BigEndian.PutUint32(rtp[8:12], r.RTP.SSRC)
	}
	return buf
}

func macFor(ip IPv4) []byte {
	return []byte{0x02, 0x00, ip[0], ip[1], ip[2], ip[3]}
}

func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i == 10 {
			continue // checksum field itself
		}
		sum += uint32(binary.BigEndian.Uint16(hdr[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}
