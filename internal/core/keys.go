package core

import "fmt"

// serveCellSchemaVersion versions the daemon's rendered cell-JSON
// framing, independent of cellSchemaVersion (the encoding of
// core's own cells). Bump it whenever the rendered cell shape
// changes.
// v2: CellResult gained the trace label and rate_over_time series.
// v3: replicated campaigns — CellResult gained the replicas block and
// metrics gained reps/stderr/ci95 fields; campaign results gained the
// repeats count.
// v4: diagnostics — diagnostics-armed daemons surface drop causes
// (drops_queue/drops_random) in cell JSON.
// v5: keys gained the bare/diag mode segment, so daemons with and
// without diagnostics that share a store never serve each other's
// documents.
const serveCellSchemaVersion = 5

// ServeCellKey names a rendered cell-JSON document in the persistent
// store, so a daemon's /cells lookups survive restarts and MaxJobs
// eviction. The "servecell" prefix keeps these documents disjoint
// from core's own cells ("v<N>/<mode>/seed..."). diagOn selects the
// mode segment: a diagnostics-armed daemon renders drop causes a bare
// one does not, so the two keep separate documents. This is the one
// canonical constructor for that namespace; assembling "servecell/"
// keys anywhere else is a vcalint storekey violation.
func ServeCellKey(scaleName string, seed int64, diagOn bool, unitKey string) string {
	return fmt.Sprintf("servecell/v%d/%s/%s/%d/%s", serveCellSchemaVersion, modeSegment(diagOn), scaleName, seed, unitKey)
}

// modeSegment names a key's cache mode: diagnostics-armed results
// differ from bare ones, so a store warmed one way must never satisfy
// the other.
func modeSegment(diagOn bool) string {
	if diagOn {
		return "diag"
	}
	return "bare"
}

// serveDiagSchemaVersion versions the daemon's persisted diagnostics
// artifacts independently: the document carries its own schema version
// (diag.Version), so this only needs to move when the key framing
// itself changes.
const serveDiagSchemaVersion = 1

// ServeDiagKey names a cell's rendered diagnostics artifact in the
// persistent store — the document behind GET /cells/{key}/diag. Only
// diagnostics-armed daemons write these, so the key needs no mode
// segment. Like ServeCellKey, this is the one canonical constructor
// for the "servediag/" namespace; assembling such keys anywhere else
// is a vcalint storekey violation.
func ServeDiagKey(scaleName string, seed int64, unitKey string) string {
	return fmt.Sprintf("servediag/v%d/%s/%d/%s", serveDiagSchemaVersion, scaleName, seed, unitKey)
}
