package capture

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// libpcap classic file format (microsecond timestamps, little endian).
const (
	pcapMagic     = 0xa1b2c3d4
	pcapVerMajor  = 2
	pcapVerMinor  = 4
	pcapSnapLen   = 65535
	linkTypeEth   = 1
	pcapHdrLen    = 24
	pcapRecHdrLen = 16
)

// ErrBadMagic indicates the input is not a little-endian microsecond pcap.
var ErrBadMagic = errors.New("capture: bad pcap magic")

// WritePcap serializes the trace as a classic libpcap file. Each record is
// synthesized into full Ethernet/IPv4/UDP(/RTP) bytes via EncodeRecord,
// so the output opens in any standard pcap tool.
func WritePcap(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	var hdr [pcapHdrLen]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:4], pcapMagic)
	le.PutUint16(hdr[4:6], pcapVerMajor)
	le.PutUint16(hdr[6:8], pcapVerMinor)
	// thiszone, sigfigs = 0
	le.PutUint32(hdr[16:20], pcapSnapLen)
	le.PutUint32(hdr[20:24], linkTypeEth)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [pcapRecHdrLen]byte
	for i := 0; i < t.Len(); i++ {
		r := t.at(i)
		data := EncodeRecord(*r)
		ts := r.Time()
		le.PutUint32(rec[0:4], uint32(ts.Unix()))
		le.PutUint32(rec[4:8], uint32(ts.Nanosecond()/1000))
		le.PutUint32(rec[8:12], uint32(len(data)))
		le.PutUint32(rec[12:16], uint32(len(data)))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
		if _, err := bw.Write(data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPcap parses a classic libpcap file into a trace. localIP classifies
// direction: packets sourced from localIP are Out, others In. Packets that
// do not decode to a well-formed UDP datagram (including one whose UDP
// length field is below its 8-byte header) are skipped and counted in
// the returned skip count.
func ReadPcap(r io.Reader, node string, localIP IPv4) (*Trace, int, error) {
	br := bufio.NewReader(r)
	var hdr [pcapHdrLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("capture: reading pcap header: %w", err)
	}
	le := binary.LittleEndian
	if le.Uint32(hdr[0:4]) != pcapMagic {
		return nil, 0, ErrBadMagic
	}
	if lt := le.Uint32(hdr[20:24]); lt != linkTypeEth {
		return nil, 0, fmt.Errorf("capture: unsupported link type %d", lt)
	}
	t := NewTrace(node)
	skipped := 0
	var rec [pcapRecHdrLen]byte
	for {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			if err == io.EOF {
				return t, skipped, nil
			}
			return t, skipped, fmt.Errorf("capture: reading record header: %w", err)
		}
		sec := le.Uint32(rec[0:4])
		usec := le.Uint32(rec[4:8])
		incl := le.Uint32(rec[8:12])
		if incl > pcapSnapLen {
			return t, skipped, fmt.Errorf("capture: record length %d exceeds snaplen", incl)
		}
		data := make([]byte, incl)
		if _, err := io.ReadFull(br, data); err != nil {
			return t, skipped, fmt.Errorf("capture: reading record body: %w", err)
		}
		ts := int64(sec)*1e9 + int64(usec)*1000
		record, err := decodeRecord(ts, data, localIP)
		if err != nil {
			skipped++
			continue
		}
		t.Add(record)
	}
}
