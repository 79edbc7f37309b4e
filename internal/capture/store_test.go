package capture

import (
	"testing"
	"time"
)

// TestStoreGrowRecords: a full slice moves, contents intact, onto the
// largest parked array with room for more; a slice with room, a nil
// store and a store parking nothing larger all leave it to append.
func TestStoreGrowRecords(t *testing.T) {
	var nilStore *Store
	rs := make([]Record, 2)
	if got := nilStore.GrowRecords(rs); &got[0] != &rs[0] {
		t.Error("a nil store moved the records")
	}
	s := NewStore()
	for _, n := range []int{8, 64, 16} {
		s.PutRecords(make([]Record, n))
	}
	if got := s.GrowRecords(rs[:1]); &got[0] != &rs[0] {
		t.Error("a slice with room was moved")
	}
	rs[0], rs[1] = mkRecord(0, In, 1, 2, 10), mkRecord(time.Second, Out, 2, 1, 20)
	got := s.GrowRecords(rs)
	if cap(got) != 64 || len(got) != 2 || got[0] != rs[0] || got[1] != rs[1] {
		t.Fatalf("grew to len %d cap %d (%v), want the 64-record array holding both records", len(got), cap(got), got)
	}
	if parked, _ := s.Parked(); len(parked) != 2 {
		t.Errorf("store parks %d arrays after handing one out, want 2", len(parked))
	}
	full := make([]Record, 16)
	if got := s.GrowRecords(full); &got[0] != &full[0] {
		t.Error("moved onto an array no larger than the records")
	}
}

// TestStoreRTPChunk: chunks come back empty, most recent first, and a
// store without a large enough chunk, or a nil one, allocates.
func TestStoreRTPChunk(t *testing.T) {
	var nilStore *Store
	if c := nilStore.RTPChunk(4); len(c) != 0 || cap(c) != 4 {
		t.Errorf("nil store chunk len %d cap %d, want 0 and 4", len(c), cap(c))
	}
	nilStore.PutRTP(make([]RTPInfo, 4)) // no-op
	s := NewStore()
	a, b := make([]RTPInfo, 3, 4), make([]RTPInfo, 4)
	s.PutRTP(a)
	s.PutRTP(b)
	if c := s.RTPChunk(4); len(c) != 0 || &c[:1][0] != &b[0] {
		t.Error("RTPChunk did not return the last chunk parked, emptied")
	}
	if c := s.RTPChunk(8); cap(c) != 8 || &c[:1][0] == &a[0] {
		t.Error("RTPChunk handed out a chunk smaller than asked for")
	}
	if c := s.RTPChunk(4); &c[:1][0] != &a[0] {
		t.Error("the remaining parked chunk was not reused")
	}
	if _, chunks := s.Parked(); len(chunks) != 0 {
		t.Errorf("store still parks %d chunks", len(chunks))
	}
}
