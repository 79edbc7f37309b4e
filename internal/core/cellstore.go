package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
)

// This file is the persistence seam of the memoized scheduler: a
// CellStore (implemented by internal/store, or anything else that can
// hold bytes under a key) lets campaign-unit results outlive the
// process. Every unit result is deterministic in (schema version, cache
// mode, seed, scale, campaign context, unit key), so that tuple IS the
// storage key: runMemoized consults the store before dispatching a unit
// and persists right after computing one, which makes warm reruns of
// whole campaigns near-instant and byte-identical to cold runs.

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

// cellSchemaVersion names the gob encoding of persisted unit results.
// Bump it whenever QoEStudyResult, LagStudyResult or any type they
// embed changes shape: old entries then miss instead of mis-decoding.
// v2: QoEStudyResult gained the RateOverTime/RateBin series.
// v3: the replication refactor — campaign salts cover the Repeats
// axis and replicated campaigns store per-replica "<cellKey>/rep=K"
// units alongside bare cell keys.
// v4: diagnostics — QoEStudyResult gained the Diag flight-recorder
// document and keys gained a bare/diag mode segment (see cellKey).
// v5: platform variants are named kinds inside unit keys and campaign
// specs, so keys lost the platform-overrides segment.
const cellSchemaVersion = 5

func init() {
	// Unit results are persisted as a gob interface value so one codec
	// covers both study types.
	gob.Register(&QoEStudyResult{})
	gob.Register(&LagStudyResult{})
}

// WithStore attaches a persistent cell store and returns tb for
// chaining. With a store attached, memoized campaign units are looked
// up before dispatch and persisted after computation; worker count and
// cache temperature never change rendered bytes, only wall-clock time.
func (tb *Testbed) WithStore(cs CellStore) *Testbed {
	tb.store = cs
	return tb
}

// StoreErr reports the first cell-persistence failure, if any.
// Persistence is an optimization — a failed Put never fails the run —
// but a silently read-only cache directory would surprise users, so
// the CLI surfaces this as a warning.
func (tb *Testbed) StoreErr() error {
	tb.memoMu.Lock()
	defer tb.memoMu.Unlock()
	return tb.storeErr
}

// fingerprint digests an arbitrary context string into a short stable
// token for store keys.
func fingerprint(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// scaleFingerprint names a scale in store keys. The name alone is not
// enough: a caller may run a tweaked Scale that reuses a preset's name
// (benchmarks do), and those cells must not be shared.
func scaleFingerprint(sc Scale) string {
	return sc.Name + "-" + fingerprint(fmt.Sprintf("%+v", sc))
}

// cellKey composes the full persisted-cell key. salt carries campaign
// context the unit key omits (single-valued axes never make it into
// keys — see Campaign); "" means the key is already self-contained,
// as lag-study keys are. The mode segment splits diagnostics-armed
// cells from bare ones: their stored values differ (Diag document
// attached or not), so a cache warmed one way must never satisfy the
// other.
func (tb *Testbed) cellKey(sc Scale, salt, unitKey string) string {
	if salt == "" {
		salt = "-"
	}
	mode := "bare"
	if tb.diag {
		mode = "diag"
	}
	return fmt.Sprintf("v%d/%s/seed%d/%s/%s/%s",
		cellSchemaVersion, mode, tb.seed, scaleFingerprint(sc), salt, unitKey)
}

// encodeCell serializes one unit result. Encoding happens immediately
// after the unit computes, before any renderer sorts the result's
// samples in place: the stored observation order must match what a
// cold run's renderer sees, or warm reruns drift in the last ulp.
func encodeCell(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeCell(data []byte) (any, error) {
	var v any
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

// storeGet fetches and decodes one unit result; any failure is a miss.
func (tb *Testbed) storeGet(sc Scale, salt, unitKey string) (any, bool) {
	if tb.store == nil {
		return nil, false
	}
	data, ok := tb.store.Get(tb.cellKey(sc, salt, unitKey))
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

// storePut persists one freshly computed unit result, recording (not
// raising) the first failure.
func (tb *Testbed) storePut(sc Scale, salt, unitKey string, v any) {
	if tb.store == nil {
		return
	}
	data, err := encodeCell(v)
	if err == nil {
		err = tb.store.Put(tb.cellKey(sc, salt, unitKey), data)
	}
	if err != nil {
		tb.memoMu.Lock()
		if tb.storeErr == nil {
			tb.storeErr = err
		}
		tb.memoMu.Unlock()
	}
}
