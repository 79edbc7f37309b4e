package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("empty store returned a hit")
	}
	want := []byte("payload with\x00binary\xffbytes")
	if err := s.Put("k", want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v; want %q", got, ok, want)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Puts != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// A second Store over the same directory — a fresh process — must see
// entries written by the first, and every read goes to the file: once
// the second handle replaces an entry, the first handle serves the new
// bytes, not the ones it wrote itself.
func TestStoreCrossProcess(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("cell/one", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		got, ok := b.Get("cell/one")
		if !ok || string(got) != "alpha" {
			t.Fatalf("cross-process Get %d = %q, %v", i, got, ok)
		}
		if st := b.Stats(); st.Hits != uint64(i) || st.Misses != 0 {
			t.Errorf("after Get %d: %+v, want %d hits", i, st, i)
		}
	}
	if err := b.Put("cell/one", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Get("cell/one"); !ok || string(got) != "beta" {
		t.Errorf("writer's own handle Get = %q, %v after another handle's Put; want %q", got, ok, "beta")
	}
}

// Corrupt files — truncated, bit-flipped, or holding another key — are
// misses, not errors, and a Put repairs them.
func TestStoreCorruptionTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	path := s.path("k")

	corrupt := func(mutate func([]byte) []byte) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(raw), 0o666); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(raw []byte) []byte { return raw[:len(raw)/2] }},
		{"bit flip", func(raw []byte) []byte { raw[len(raw)-5] ^= 0x40; return raw }},
		{"empty", func(raw []byte) []byte { return nil }},
		{"foreign key", func(raw []byte) []byte { return frame("other", []byte("good bytes")) }},
		// Length fields crafted so naive addition wraps past the bounds
		// checks: must be a miss, not a slice panic.
		{"key length overflow", func(raw []byte) []byte {
			for i := 0; i < 8; i++ {
				raw[len(magic)+i] = 0xff
			}
			return raw
		}},
		{"payload length overflow", func(raw []byte) []byte {
			off := len(magic) + 8 + len("k")
			for i := 0; i < 8; i++ {
				raw[off+i] = 0xff
			}
			return raw
		}},
	}
	for _, c := range cases {
		// Fresh store per case, so each case counts one corrupt read.
		s, err = Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(c.mutate)
		if _, ok := s.Get("k"); ok {
			t.Errorf("%s: corrupt cell served as a hit", c.name)
		}
		if st := s.Stats(); st.Corrupt != 1 {
			t.Errorf("%s: corrupt count = %d, want 1", c.name, st.Corrupt)
		}
		if err := s.Put("k", []byte("good bytes")); err != nil {
			t.Fatalf("%s: repair Put: %v", c.name, err)
		}
		if got, ok := s.Get("k"); !ok || string(got) != "good bytes" {
			t.Errorf("%s: repaired Get = %q, %v", c.name, got, ok)
		}
	}
}

// Leftover temp files from a crashed writer never shadow the entry.
func TestStorePutAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	objDir := filepath.Dir(s.path("k"))
	if err := os.WriteFile(filepath.Join(objDir, ".tmp-crashed"), []byte("garbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("k"); !ok || string(got) != "v" {
		t.Errorf("Get = %q, %v despite stray temp file", got, ok)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			key := string(rune('a' + g%4))
			for i := 0; i < 50; i++ {
				if err := s.Put(key, []byte{byte(g)}); err != nil {
					done <- err
					return
				}
				s.Get(key)
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
