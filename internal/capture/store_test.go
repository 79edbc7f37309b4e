package capture

import (
	"reflect"
	"strconv"
	"testing"
	"time"
	"unsafe"
)

// TestRecordHoldsNoPointers: a record is plain data, so a trace's chunks
// are never scanned by the garbage collector and copying one pays no
// write barrier. A pointer, string, slice, map, interface, channel or
// function field anywhere inside Record fails it.
func TestRecordHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("Record", reflect.TypeOf(Record{}))
	if strconv.IntSize == 64 {
		if size := unsafe.Sizeof(Record{}); size != 48 {
			t.Errorf("Record is %d bytes, want 48", size)
		}
	}
}

// flatTrace returns n records one millisecond apart, in both directions
// and of varied sizes, every third with an RTP header, as a trace on s
// and as a plain slice.
func flatTrace(n int, s *Store) (*Trace, []Record) {
	tr := NewTraceOn("n", s)
	flat := make([]Record, n)
	for i := range flat {
		r := mkRecord(time.Duration(i)*time.Millisecond, Dir(i%2), 1, 2, 100+i%700)
		if i%3 == 0 {
			r.HasRTP, r.RTP = true, RTPInfo{SSRC: 9, Seq: uint16(i)}
		}
		flat[i] = r
		tr.Add(r)
	}
	return tr, flat
}

// checkTrace compares every reader of tr with the same reader over want.
func checkTrace(t *testing.T, name string, tr *Trace, want []Record) {
	t.Helper()
	if tr.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", name, tr.Len(), len(want))
	}
	for i, r := range want {
		if got := tr.Record(i); got != r {
			t.Fatalf("%s: record %d is %+v, want %+v", name, i, got, r)
		}
	}
	var from, to time.Time
	var bytes [2]int64
	var packets [2]int
	for _, r := range want {
		bytes[r.Dir] += int64(r.Len)
		packets[r.Dir]++
	}
	if len(want) > 0 {
		from, to = want[0].Time(), want[len(want)-1].Time()
	}
	if f, e := tr.Span(); !f.Equal(from) || !e.Equal(to) {
		t.Errorf("%s: Span %v..%v, want %v..%v", name, f, e, from, to)
	}
	for _, d := range []Dir{In, Out} {
		if tr.Bytes(d) != bytes[d] || tr.Packets(d) != packets[d] {
			t.Errorf("%s: %v bytes %d packets %d, want %d and %d", name, d, tr.Bytes(d), tr.Packets(d), bytes[d], packets[d])
		}
	}
	keep := func(r Record) bool { return r.HasRTP }
	var kept []Record
	for _, r := range want {
		if keep(r) {
			kept = append(kept, r)
		}
	}
	if f := tr.Filter(keep); f.Len() != len(kept) {
		t.Errorf("%s: Filter kept %d records, want %d", name, f.Len(), len(kept))
	} else {
		for i, r := range kept {
			if f.Record(i) != r {
				t.Errorf("%s: filtered record %d differs", name, i)
				break
			}
		}
	}
}

// TestTraceViewsMatchFlatRecords: traces of every length around a chunk
// boundary, and views of them that start, end and straddle chunk
// boundaries, read exactly as a flat slice of the same records does.
func TestTraceViewsMatchFlatRecords(t *testing.T) {
	store := NewStore()
	for _, n := range []int{0, 1, 511, 512, 513, 3*ChunkLen + 7} {
		tr, flat := flatTrace(n, store)
		checkTrace(t, "trace of "+strconv.Itoa(n), tr, flat)
		at := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Millisecond) }
		cuts := []int{0, 1, 255, 511, 512, 513, 1023, 1024, 1025, 1536, 1540, n - 1, n}
		for _, lo := range cuts {
			for _, hi := range cuts {
				if lo < 0 || hi > n || lo > hi {
					continue
				}
				name := "view [" + strconv.Itoa(lo) + "," + strconv.Itoa(hi) + ") of " + strconv.Itoa(n)
				v := tr.Between(at(lo), at(hi))
				checkTrace(t, name, v, flat[lo:hi])
				// A view of a view, cut between records.
				if hi-lo >= 2 {
					inner := v.Between(at(lo+1).Add(-time.Microsecond), at(hi-1).Add(time.Microsecond))
					checkTrace(t, "inner "+name, inner, flat[lo+1:hi])
				}
			}
		}
		tr.Release()
	}
}

// TestReleasedTraceTakesNewStorage: Release empties the trace and parks
// every chunk; a record added afterwards lands on a new chunk, never on
// one given back.
func TestReleasedTraceTakesNewStorage(t *testing.T) {
	store := NewStore()
	tr, _ := flatTrace(3*ChunkLen+7, store)
	tr.Release()
	parked := append([]*chunk(nil), store.Parked()...)
	if tr.Len() != 0 || len(parked) != 4 {
		t.Fatalf("released trace holds %d records and the store parks %d chunks, want 0 and 4", tr.Len(), len(parked))
	}
	r := mkRecord(0, In, 1, 2, 77)
	tr.Add(r)
	for _, c := range parked {
		c[0] = Record{Dir: 7, Len: -1}
	}
	if tr.Len() != 1 || tr.Record(0) != r {
		t.Errorf("post-release trace reads %d records (%+v) after the given-back chunks were overwritten", tr.Len(), tr.Record(0))
	}
	if len(store.Parked()) != len(parked) {
		t.Errorf("store parks %d chunks after a post-release Add, want %d", len(store.Parked()), len(parked))
	}
}

// TestWarmStoreAddsWithoutAllocating: a chunk's worth of Adds on a store
// that parks chunks allocates nothing.
func TestWarmStoreAddsWithoutAllocating(t *testing.T) {
	store := NewStore()
	warm, _ := flatTrace(spineLen*ChunkLen, store)
	warm.Release()
	tr := NewTraceOn("n", store)
	r := mkRecord(0, Out, 1, 2, 900)
	add := func() {
		for i := 0; i < ChunkLen; i++ {
			tr.Add(r)
		}
	}
	if n := testing.AllocsPerRun(spineLen-1, add); n != 0 {
		t.Errorf("%d Adds on a warm store allocate %v times, want 0", ChunkLen, n)
	}
}

// TestStoreFreeList: chunks come back most recent first, and a store
// with none parked, or a nil one, allocates.
func TestStoreFreeList(t *testing.T) {
	var nilStore *Store
	if c := nilStore.take(); c == nil {
		t.Error("a nil store returned no chunk")
	}
	nilStore.put(new(chunk)) // no-op
	s := NewStore()
	a, b := new(chunk), new(chunk)
	s.put(a)
	s.put(b)
	if c := s.take(); c != b {
		t.Error("take did not return the last chunk parked")
	}
	if c := s.take(); c != a {
		t.Error("the remaining parked chunk was not reused")
	}
	if c := s.take(); c == a || c == b {
		t.Error("an empty store handed out a chunk it had already handed out")
	}
	if n := len(s.Parked()); n != 0 {
		t.Errorf("store still parks %d chunks", n)
	}
}
