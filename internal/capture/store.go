package capture

// Store recycles capture storage: a free list of record chunks, all of
// one size. Like media.FramePool it has one owner on one goroutine at a
// time, so reuse order is deterministic. A chunk comes back dirty:
// a trace writes each record with Add before it reads it, so no record
// of an earlier trace is ever read.
//
// A chunk is given back only by Trace.Release, once no reader can reach
// it: the trace and every view of it die with the release.
//
// A nil *Store does not recycle: take allocates and put drops.
type Store struct {
	free []*chunk
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// take returns a parked chunk, the one parked last, or a new one.
func (s *Store) take() *chunk {
	if s != nil {
		if last := len(s.free) - 1; last >= 0 {
			c := s.free[last]
			s.free[last] = nil
			s.free = s.free[:last]
			return c
		}
	}
	return new(chunk)
}

// put parks c.
func (s *Store) put(c *chunk) {
	if s != nil {
		s.free = append(s.free, c)
	}
}

// Parked returns the chunks s holds for reuse. The slice aliases s's
// free list.
func (s *Store) Parked() []*[ChunkLen]Record { return s.free }
