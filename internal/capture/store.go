package capture

// Store recycles capture storage: the backing arrays of traces' record
// slices and the RTPInfo chunks a monitor copies RTP headers into. Like
// media.FramePool it has one owner on one goroutine at a time, so reuse
// order is deterministic. Storage comes back dirty: whoever takes it
// appends before reading, so no entry of an earlier trace is ever read.
//
// Storage is given back only whole, once no reader can reach it: a
// trace's records and every view of them (Between) die with the
// release, and so do the RTP chunks their RTP fields point into.
//
// A nil *Store does not recycle: GrowRecords leaves growth to append,
// RTPChunk allocates, and the Put methods do nothing.
type Store struct {
	records [][]Record  // parked record arrays, each of length 0
	rtp     [][]RTPInfo // parked RTP chunks, each of length 0
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// GrowRecords returns rs with room for at least one more record. When
// rs is full and s parks an array larger than len(rs), it returns rs
// copied onto the largest such array, which leaves s; rs's own array is
// not parked, since a view of it may still be read. Otherwise it returns
// rs unchanged, and append grows it as usual.
func (s *Store) GrowRecords(rs []Record) []Record {
	if s == nil || len(rs) < cap(rs) {
		return rs
	}
	best := -1
	for i, p := range s.records {
		if cap(p) > len(rs) && (best < 0 || cap(p) > cap(s.records[best])) {
			best = i
		}
	}
	if best < 0 {
		return rs
	}
	grown := append(s.records[best], rs...)
	last := len(s.records) - 1
	s.records[best] = s.records[last]
	s.records[last] = nil
	s.records = s.records[:last]
	return grown
}

// PutRecords parks the array behind rs. The caller must not read rs, or
// any slice of its array, afterwards.
func (s *Store) PutRecords(rs []Record) {
	if s == nil || cap(rs) == 0 {
		return
	}
	s.records = append(s.records, rs[:0])
}

// RTPChunk returns an empty chunk with room for n entries: a parked one
// if s has one that large, else a new one.
func (s *Store) RTPChunk(n int) []RTPInfo {
	if s != nil {
		if last := len(s.rtp) - 1; last >= 0 && cap(s.rtp[last]) >= n {
			c := s.rtp[last]
			s.rtp[last] = nil
			s.rtp = s.rtp[:last]
			return c
		}
	}
	return make([]RTPInfo, 0, n)
}

// PutRTP parks chunk. The caller must not read chunk, or a record whose
// RTP field points into it, afterwards.
func (s *Store) PutRTP(chunk []RTPInfo) {
	if s == nil || cap(chunk) == 0 {
		return
	}
	s.rtp = append(s.rtp, chunk[:0])
}

// Parked returns the storage s holds for reuse: the record arrays and
// the RTP chunks, each of length 0. The slices alias s's storage.
func (s *Store) Parked() (records [][]Record, rtp [][]RTPInfo) {
	return s.records, s.rtp
}
