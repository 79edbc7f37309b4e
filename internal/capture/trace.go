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

// Record is one captured packet. It holds no pointers, so the garbage
// collector never scans a trace's storage.
//
// UnixNano is the capture time as wall-clock nanoseconds since the Unix
// epoch: a time.Time's location and monotonic reading are not kept, so
// a capture from a real clock measures wall time (Time returns it in
// UTC).
type Record struct {
	UnixNano int64
	Dir      Dir
	HasRTP   bool // RTP holds the packet's RTP header
	Src      Endpoint
	Dst      Endpoint
	Len      int // UDP payload (L7) length in bytes
	RTP      RTPInfo
}

// Time returns the capture time in UTC.
func (r Record) Time() time.Time { return time.Unix(0, r.UnixNano).UTC() }

// Remote returns the non-local endpoint given the record's direction.
func (r Record) Remote() Endpoint {
	if r.Dir == In {
		return r.Src
	}
	return r.Dst
}

// ChunkLen is how many records one storage chunk holds.
const ChunkLen = 512

// chunk is a trace's unit of storage. A trace appends into its last
// chunk and takes a new one when that is full, so a record never moves.
type chunk = [ChunkLen]Record

// spineLen is the room a new trace has for chunk pointers (4096
// records) before its spine grows.
const spineLen = 8

// Trace is an append-only packet capture for one node, or a read-only
// view of one (Between). Its records live in chunks, taken from the
// trace's Store until Release.
type Trace struct {
	Node string
	// chunks holds the window's records: n records from index off of
	// chunks[0] on. A trace built by Add has off 0; a view shares its
	// parent's chunks.
	chunks []*chunk
	off, n int
	store  *Store
	view   bool
}

// NewTrace creates an empty capture for the named node; its storage is
// allocated.
func NewTrace(node string) *Trace { return NewTraceOn(node, nil) }

// NewTraceOn creates an empty capture for the named node whose chunks
// come from s until Release; a nil s allocates them.
func NewTraceOn(node string, s *Store) *Trace {
	return &Trace{Node: node, chunks: make([]*chunk, 0, spineLen), store: s}
}

// Add appends a record. Records are expected in nondecreasing time order
// (the capture point is a single choke point); Add preserves whatever
// order the caller provides. Adding to a view panics.
func (t *Trace) Add(r Record) {
	if t.view {
		panic("capture: Add to a trace view")
	}
	i := t.n % ChunkLen
	if i == 0 {
		t.chunks = append(t.chunks, t.store.take())
	}
	t.chunks[len(t.chunks)-1][i] = r
	t.n++
}

// Len reports the number of captured packets.
func (t *Trace) Len() int { return t.n }

// Record returns the i-th record, 0 <= i < Len.
func (t *Trace) Record(i int) Record {
	if uint(i) >= uint(t.n) {
		panic("capture: record index out of range")
	}
	return *t.at(i)
}

func (t *Trace) at(i int) *Record {
	j := t.off + i
	return &t.chunks[j/ChunkLen][j%ChunkLen]
}

// runs yields the trace's records in order, one slice per chunk they
// touch. The slices alias the chunks.
func (t *Trace) runs(yield func([]Record) bool) {
	lo, left := t.off, t.n
	for _, c := range t.chunks {
		if left == 0 {
			return
		}
		hi := min(lo+left, ChunkLen)
		if !yield(c[lo:hi]) {
			return
		}
		left -= hi - lo
		lo = 0
	}
}

// Release ends the trace's storage lifetime: its chunks go back to its
// store (a nil store drops them) and the trace is left empty, so every
// view of it taken before must be dead. The trace then leaves the
// store: a record added after Release lands on new storage, never on a
// chunk given back. Releasing a view panics.
func (t *Trace) Release() {
	if t.view {
		panic("capture: Release of a trace view")
	}
	for i, c := range t.chunks {
		t.store.put(c)
		t.chunks[i] = nil
	}
	t.chunks = t.chunks[:0]
	t.n = 0
	t.store = nil
}

// Between returns a sub-trace view of records with from <= Time < to.
// The view shares storage with the parent.
func (t *Trace) Between(from, to time.Time) *Trace {
	f, e := from.UnixNano(), to.UnixNano()
	lo := sort.Search(t.n, func(i int) bool { return t.at(i).UnixNano >= f })
	hi := sort.Search(t.n, func(i int) bool { return t.at(i).UnixNano >= e })
	v := &Trace{Node: t.Node, view: true}
	if lo < hi {
		start, end := t.off+lo, t.off+hi
		v.chunks = t.chunks[start/ChunkLen : (end+ChunkLen-1)/ChunkLen]
		v.off = start % ChunkLen
		v.n = hi - lo
	}
	return v
}

// Filter returns a new trace, on allocated storage, containing the
// records for which keep is true.
func (t *Trace) Filter(keep func(Record) bool) *Trace {
	out := NewTrace(t.Node)
	for rs := range t.runs {
		for i := range rs {
			if keep(rs[i]) {
				out.Add(rs[i])
			}
		}
	}
	return out
}

// Span returns the time range covered by the trace.
func (t *Trace) Span() (from, to time.Time) {
	if t.n == 0 {
		return time.Time{}, time.Time{}
	}
	return t.at(0).Time(), t.at(t.n - 1).Time()
}

// Bytes sums L7 payload lengths in the given direction.
func (t *Trace) Bytes(d Dir) int64 {
	var n int64
	for rs := range t.runs {
		for i := range rs {
			if rs[i].Dir == d {
				n += int64(rs[i].Len)
			}
		}
	}
	return n
}

// Packets counts records in the given direction.
func (t *Trace) Packets(d Dir) int {
	n := 0
	for rs := range t.runs {
		for i := range rs {
			if rs[i].Dir == d {
				n++
			}
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
	for rs := range t.runs {
		for i := range rs {
			if rs[i].Dir != d {
				continue
			}
			e := rs[i].Remote()
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
	}
	return out
}
