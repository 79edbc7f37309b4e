package core

import (
	"bytes"
	"encoding/json"
	"runtime/metrics"
	"testing"
)

// FuzzParseCampaign feeds arbitrary bytes to the campaign-spec parser:
// it must never panic, and every spec it accepts must expand to keys
// that are stable under re-parse — the canonical-key contract the memo
// table, store keys and distributed merge all build on.
func FuzzParseCampaign(f *testing.F) {
	f.Add([]byte(`{"name": "x"}`))
	f.Add([]byte(`{"name": "p", "platforms": ["zoom"], "sizes": [2, 4], "caps_bps": [0, 750000]}`))
	f.Add([]byte(`{"name": "g", "geometries": [{"host": "US-East", "receivers": ["FR", "DE"]}], "audio": [true, false]}`))
	f.Add([]byte(`{"name": "n", "netem": [{"name": "a"}, {"name": "b", "loss_pct": 1.5}]}`))
	f.Add([]byte(`{"name": "f", "netem": [{"name": "w", "fluct_hi_bps": 1500000, "fluct_lo_bps": 300000, "fluct_period_sec": 4}]}`))
	f.Add([]byte(`{"name": "f2", "netem": [{"name": "w", "fluct_hi_bps": 1500000, "fluct_lo_bps": 300000, "fluct_period_sec": 2e6}]}`))
	f.Add([]byte(`{"name": "t", "traces": [{"name": "dip", "square": {"high_bps": 0, "low_bps": 250000, "high_sec": 2, "low_sec": 4, "once": true}}]}`))
	f.Add([]byte(`{"name": "t2", "traces": [{"name": "st", "steps": [{"at_sec": 0, "down_cap_bps": 1000000}, {"at_sec": 3, "loss_pct": 5}], "repeat_sec": 6}]}`))
	f.Add([]byte(`{"name": "t3", "traces": [{"name": "sw", "sawtooth": {"top_bps": 1000000, "bottom_bps": 100000, "steps": 4, "period_sec": 8}}, {"name": "sd", "step_down": {"levels_bps": [1000000, 500000], "dwell_sec": 2}}]}`))
	f.Add([]byte(`{"name": "o", "traces": [{"name": "t", "steps": [{"at_sec": 1e10, "down_cap_bps": 1000}]}]}`))
	f.Add([]byte(`{"name": "a/b"}`))
	f.Add([]byte(`{"name": "x", "sizes": [1]}`))
	f.Add([]byte(`{"name": ""}`))
	f.Add([]byte(`{"name": "x"}{"name": "y"}`))
	f.Add([]byte(`{"name": "r", "platforms": ["zoom", "meet"], "repeats": 3}`))
	f.Add([]byte(`{"name": "r1", "repeats": 1}`))
	f.Add([]byte(`{"name": "r-", "repeats": -1}`))
	f.Add([]byte(`{"name": "rbig", "repeats": 999999999}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseCampaign(data)
		if err != nil {
			return
		}
		keys, err := spec.UnitKeys()
		if err != nil {
			t.Fatalf("accepted spec fails to expand: %v\nspec: %+v", err, spec)
		}
		seen := make(map[string]bool, len(keys))
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("accepted spec expands duplicate key %q", k)
			}
			seen[k] = true
		}
		// Canonical keys must survive a marshal/re-parse round trip.
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := ParseCampaign(enc)
		if err != nil {
			t.Fatalf("re-parse of accepted spec rejected: %v\n%s", err, enc)
		}
		keys2, err := back.UnitKeys()
		if err != nil {
			t.Fatalf("re-parsed spec fails to expand: %v", err)
		}
		if len(keys) != len(keys2) {
			t.Fatalf("key count drifted across re-parse: %d vs %d", len(keys), len(keys2))
		}
		for i := range keys {
			if keys[i] != keys2[i] {
				t.Fatalf("key %d drifted across re-parse: %q vs %q", i, keys[i], keys2[i])
			}
		}
	})
}

// FuzzDecodeCell feeds arbitrary bytes to the cell decoder, which reads
// the store and the fleet's responses. It must never panic; any input
// either fails or decodes to a value that re-encodes to exactly the
// same bytes; and decoding never allocates far beyond what the input
// could hold, because every length is checked before it is allocated.
func FuzzDecodeCell(f *testing.F) {
	for _, c := range realCells(f) {
		f.Add(c.data)
	}
	for _, v := range []any{edgeQoE(), edgeLag()} {
		data, err := encodeCell(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{cellTagQoE})
	f.Add([]byte{cellTagLag, 0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, data []byte) {
		allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(allocs)
		before := allocs[0].Value.Uint64()
		v, err := decodeCell(data)
		metrics.Read(allocs)
		// A decoded element takes at least one input byte, and the
		// largest decoded form per input byte is a map entry, well
		// under 64 bytes. The constant absorbs the runtime's batched
		// accounting of small allocations and the fuzzing engine's own.
		if got, limit := allocs[0].Value.Uint64()-before, uint64(64*len(data)+4<<20); got > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		back, err := encodeCell(v)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("decoded %T re-encodes to different bytes:\n in: %x\nout: %x", v, data, back)
		}
	})
}
