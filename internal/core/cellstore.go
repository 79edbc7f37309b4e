package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
)

// This file is the one result cache of the memoized scheduler: a
// CellStore holds encoded campaign-unit results under their full cell
// key. Every unit result is deterministic in (schema version, cache
// mode, seed, scale, campaign context, unit key), so that tuple IS the
// storage key: runMemoized consults the store before dispatching a unit
// and persists right after resolving one. Every testbed starts with an
// in-process store, so experiments sharing a campaign on one testbed
// share its units; attaching internal/store (WithStore) extends the
// sharing across processes and makes warm reruns of whole campaigns
// near-instant and byte-identical to cold runs. Every hit is a fresh
// decode, so no reader can change what a later reader sees.

// CellStore persists encoded campaign-unit results across processes.
// Implementations must be safe for concurrent use; the harness treats
// Get misses and failed Puts as cache misses, never as run failures.
type CellStore interface {
	// Get returns the bytes stored under key. The returned slice is
	// treated as read-only by the caller.
	Get(key string) ([]byte, bool)
	// Put stores data under key, replacing any prior entry.
	Put(key string, data []byte) error
}

// cellSchemaVersion names the encoding of persisted unit results.
// Bump it whenever QoEStudyResult, LagStudyResult or any type they
// embed changes shape, or the encoding itself changes: old entries then
// miss instead of mis-decoding.
// v2: QoEStudyResult gained the RateOverTime/RateBin series.
// v3: the replication refactor — campaign salts cover the Repeats
// axis and replicated campaigns store per-replica "<cellKey>/rep=K"
// units alongside bare cell keys.
// v4: diagnostics — QoEStudyResult gained the Diag flight-recorder
// document and keys gained a bare/diag mode segment (see cellKey).
// v5: platform variants are named kinds inside unit keys and campaign
// specs, so keys lost the platform-overrides segment.
// v6: cells are the tagged binary encoding of cellcodec.go, not gob.
// v7: campaign salts and scale fingerprints hash JSON, not %+v text.
const cellSchemaVersion = 7

// memStore is the in-process CellStore a testbed starts with: encoded
// cells in a map built on first Put, living as long as the testbed.
type memStore struct {
	mu    sync.Mutex
	cells map[string][]byte
}

func (m *memStore) Get(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.cells[key]
	return data, ok
}

func (m *memStore) Put(key string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cells == nil {
		m.cells = make(map[string][]byte)
	}
	m.cells[key] = data
	return nil
}

// WithStore replaces the testbed's in-process cell store with cs (a
// persistent one, typically) and returns tb for chaining; nil restores
// an empty in-process store. Campaign units are looked up before
// dispatch and persisted after computation; worker count and cache
// temperature never change rendered bytes, only wall-clock time.
func (tb *Testbed) WithStore(cs CellStore) *Testbed {
	if cs == nil {
		cs = new(memStore)
	}
	tb.store = cs
	return tb
}

// StoreErr reports the first cell-persistence failure, if any.
// Persistence is an optimization — a failed Put never fails the run —
// but a silently read-only cache directory would surprise users, so
// the CLI surfaces this as a warning.
func (tb *Testbed) StoreErr() error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.storeErr
}

// fingerprint digests the JSON encoding of v, a value of exported
// fields only, into a short stable token for store keys. JSON quotes
// every string, so no name can spell out the fields that follow it and
// make two different values hash alike.
func fingerprint(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		// Callers pass validated values: finite floats, no channels or
		// functions.
		panic("core: fingerprint: " + err.Error())
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// scaleFingerprint names a scale in store keys. The name alone is not
// enough: a caller may run a tweaked Scale that reuses a preset's name
// (benchmarks do), and those cells must not be shared. It encodes and
// hashes the whole Scale, so callers compute it once per batch of units
// and pass the result to cellKey.
func scaleFingerprint(sc Scale) string {
	return sc.Name + "-" + fingerprint(sc)
}

// cellKey composes the full persisted-cell key. scaleFP is
// scaleFingerprint of the unit's scale. salt carries campaign
// context the unit key omits (single-valued axes never make it into
// keys — see Campaign); "" means the key is already self-contained,
// as lag-study keys are. The mode segment splits diagnostics-armed
// cells from bare ones: their stored values differ (Diag document
// attached or not), so a cache warmed one way must never satisfy the
// other.
func (tb *Testbed) cellKey(scaleFP, salt, unitKey string) string {
	if salt == "" {
		salt = "-"
	}
	return fmt.Sprintf("v%d/%s/seed%d/%s/%s/%s",
		cellSchemaVersion, modeSegment(tb.diag), tb.seed, scaleFP, salt, unitKey)
}

// storeGet fetches and decodes the unit result stored under cell key
// ckey; any failure is a miss.
func (tb *Testbed) storeGet(ckey string) (any, bool) {
	data, ok := tb.store.Get(ckey)
	if !ok {
		return nil, false
	}
	v, err := decodeCell(data)
	if err != nil {
		// Undecodable bytes (foreign content, or corruption that got
		// past the store's own checks) mean recompute-and-overwrite,
		// never a failed run.
		return nil, false
	}
	return v, true
}

// storePut persists one resolved unit result under cell key ckey,
// recording (not raising) the first failure.
func (tb *Testbed) storePut(ckey string, v any) {
	data, err := encodeCell(v)
	if err == nil {
		err = tb.store.Put(ckey, data)
	}
	if err != nil {
		tb.mu.Lock()
		if tb.storeErr == nil {
			tb.storeErr = err
		}
		tb.mu.Unlock()
	}
}
