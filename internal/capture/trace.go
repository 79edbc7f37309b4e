package capture

import (
	"sort"
	"time"
)

// Dir is the packet direction relative to the capturing node.
type Dir int8

const (
	In  Dir = iota // received by the node
	Out            // sent by the node
)

func (d Dir) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// RTPInfo is optional RTP metadata attached to a record, either supplied
// directly by the simulated transport or recovered by decoding pcap bytes.
type RTPInfo struct {
	SSRC    uint32
	Seq     uint16
	TS      uint32
	Marker  bool
	PT      uint8
	KeyUnit bool // out-of-band hint: packet belongs to an intra frame
}

// Record is one captured packet.
type Record struct {
	Time time.Time
	Dir  Dir
	Src  Endpoint
	Dst  Endpoint
	Len  int // UDP payload (L7) length in bytes
	RTP  *RTPInfo
}

// Flow returns the record's directed flow.
func (r Record) Flow() Flow { return Flow{Src: r.Src, Dst: r.Dst} }

// Remote returns the non-local endpoint given the record's direction.
func (r Record) Remote() Endpoint {
	if r.Dir == In {
		return r.Src
	}
	return r.Dst
}

// Trace is an append-only packet capture for one node.
type Trace struct {
	Node    string
	Records []Record
}

// NewTrace creates an empty capture for the named node.
func NewTrace(node string) *Trace { return &Trace{Node: node} }

// Add appends a record. Records are expected in nondecreasing time order
// (the capture point is a single choke point); Add preserves whatever
// order the caller provides.
func (t *Trace) Add(r Record) { t.Records = append(t.Records, r) }

// Len reports the number of captured packets.
func (t *Trace) Len() int { return len(t.Records) }

// Between returns a sub-trace view of records with from <= Time < to.
// The view shares storage with the parent.
func (t *Trace) Between(from, to time.Time) *Trace {
	lo := sort.Search(len(t.Records), func(i int) bool { return !t.Records[i].Time.Before(from) })
	hi := sort.Search(len(t.Records), func(i int) bool { return !t.Records[i].Time.Before(to) })
	return &Trace{Node: t.Node, Records: t.Records[lo:hi]}
}

// Filter returns a new trace containing records for which keep is true.
func (t *Trace) Filter(keep func(Record) bool) *Trace {
	out := NewTrace(t.Node)
	for _, r := range t.Records {
		if keep(r) {
			out.Add(r)
		}
	}
	return out
}

// Span returns the time range covered by the trace.
func (t *Trace) Span() (from, to time.Time) {
	if len(t.Records) == 0 {
		return time.Time{}, time.Time{}
	}
	return t.Records[0].Time, t.Records[len(t.Records)-1].Time
}

// Bytes sums L7 payload lengths in the given direction.
func (t *Trace) Bytes(d Dir) int64 {
	var n int64
	for _, r := range t.Records {
		if r.Dir == d {
			n += int64(r.Len)
		}
	}
	return n
}

// Packets counts records in the given direction.
func (t *Trace) Packets(d Dir) int {
	n := 0
	for _, r := range t.Records {
		if r.Dir == d {
			n++
		}
	}
	return n
}

// Rate returns the average L7 data rate in bits/s in the given direction
// over the trace's span, or 0 for traces shorter than a millisecond.
func (t *Trace) Rate(d Dir) float64 {
	from, to := t.Span()
	dur := to.Sub(from).Seconds()
	if dur < 1e-3 {
		return 0
	}
	return float64(t.Bytes(d)) * 8 / dur
}

// RemoteEndpoints returns the distinct remote endpoints observed in the
// given direction, in first-seen order.
func (t *Trace) RemoteEndpoints(d Dir) []Endpoint {
	seen := make(map[Endpoint]bool)
	var out []Endpoint
	for _, r := range t.Records {
		if r.Dir != d {
			continue
		}
		e := r.Remote()
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}
