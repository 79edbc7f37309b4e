package rtp

// ChunkLen is how many packets one storage chunk holds.
const ChunkLen = 256

// Chunk is a Store's unit of storage: the packets, their payloads and
// the pointer slots Video returns, for up to ChunkLen fragments. A
// packetizer hands out consecutive slots of one chunk until a frame no
// longer fits, then takes another; a frame wider than a chunk gets its
// own allocation.
type Chunk struct {
	Packets  [ChunkLen]Packet
	Payloads [ChunkLen]Payload
	Ptrs     [ChunkLen]*Packet
	next     *Chunk // the packetizer's held list or the store's free list
}

// Store recycles RTP packet storage: a free list of chunks, all of one
// size. Like capture.Store it has one owner on one goroutine at a time,
// so reuse order is deterministic. A chunk comes back dirty: a
// packetizer writes every slot of a packet before handing it out.
//
// A chunk is given back only by Packetizer.Release, once no reader can
// reach it. A relay hands one *Packet to every receiver, and a packet
// may sit in a pending simulator event after its session has ended, so
// a study releases its clients' packetizers only when the study ends
// (client.Client.Release).
//
// A nil *Store does not recycle: take allocates and put drops.
type Store struct {
	free *Chunk
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// take returns a parked chunk, the one parked last, or a new one.
func (s *Store) take() *Chunk {
	if s != nil && s.free != nil {
		c := s.free
		s.free, c.next = c.next, nil
		return c
	}
	return new(Chunk)
}

// put parks c. It drops the payloads' frame references first, so a
// parked chunk keeps no finished study's frames (and through them its
// encoder) alive.
func (s *Store) put(c *Chunk) {
	if s != nil {
		clear(c.Payloads[:])
		c.next, s.free = s.free, c
	}
}

// Parked returns the chunks s holds for reuse, the next to be taken
// first.
func (s *Store) Parked() []*Chunk {
	var out []*Chunk
	for c := s.free; c != nil; c = c.next {
		out = append(out, c)
	}
	return out
}
