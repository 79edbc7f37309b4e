package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/vcabench/vcabench/internal/core"
	"github.com/vcabench/vcabench/internal/report"
	"github.com/vcabench/vcabench/internal/store"
)

// testSpec is a one-cell campaign, cheap enough for HTTP tests.
const testSpec = `{"name": "svc", "platforms": ["zoom"]}`

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	if cfg.Scale.Name == "" {
		cfg.Scale = core.TinyScale
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// submit POSTs a spec and returns the decoded status.
func submit(t *testing.T, ts *httptest.Server, body string) jobStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// poll waits for the job to finish and returns its terminal status.
func poll(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Status == "done" || st.Status == "failed" {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("campaign did not finish in time")
	return jobStatus{}
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// The acceptance criterion: the daemon returns the same bytes for a
// spec as the direct CLI/library path at the same scale and seed.
func TestServeResultMatchesDirectPath(t *testing.T) {
	ts := newTestServer(t, Config{})
	st := submit(t, ts, `{"spec": `+testSpec+`}`)
	if st.Status == "failed" {
		t.Fatalf("submit failed: %s", st.Error)
	}
	if fin := poll(t, ts, st.ID); fin.Status != "done" || fin.Cells != 1 {
		t.Fatalf("terminal status = %+v", fin)
	}
	code, body := get(t, ts, "/campaigns/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result status = %d: %s", code, body)
	}

	spec, err := core.ParseCampaign([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunCampaign(core.NewTestbed(42), spec, core.TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := report.WriteJSON(&direct, res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, direct.Bytes()) {
		t.Errorf("daemon result differs from direct path:\n--- daemon ---\n%s\n--- direct ---\n%s", body, direct.Bytes())
	}

	// Per-cell lookup serves the same cell the document holds.
	code, cell := get(t, ts, "/cells/svc")
	if code != http.StatusOK {
		t.Fatalf("cell status = %d: %s", code, cell)
	}
	var got core.CellResult
	if err := json.Unmarshal(cell, &got); err != nil {
		t.Fatal(err)
	}
	if got.Key != "svc" || got.Platform != "zoom" || got.PSNR == nil {
		t.Errorf("cell lookup = %+v", got)
	}
}

// Resubmitting a spec returns the existing job: same id, no recompute.
func TestServeDedupesIdenticalSpecs(t *testing.T) {
	ts := newTestServer(t, Config{})
	a := submit(t, ts, `{"spec": `+testSpec+`}`)
	poll(t, ts, a.ID)
	b := submit(t, ts, `{"spec": `+testSpec+`}`)
	if a.ID != b.ID {
		t.Errorf("identical specs got different ids: %s vs %s", a.ID, b.ID)
	}
	// Different seed or scale is a different job.
	c := submit(t, ts, `{"spec": `+testSpec+`, "seed": 7}`)
	if c.ID == a.ID {
		t.Error("different seed shares a job id")
	}
	// And its cells are indexed under that seed, not over the default
	// run's: the same unit key resolves per (scale, seed).
	if fin := poll(t, ts, c.ID); fin.Status != "done" {
		t.Fatalf("seed-7 job: %+v", fin)
	}
	_, def := get(t, ts, "/cells/svc")
	_, alt := get(t, ts, "/cells/svc?seed=7")
	if bytes.Equal(def, alt) {
		t.Error("seed-7 cell shadowed or shadowed by the default-seed cell")
	}
	if code, _ := get(t, ts, "/cells/svc?seed=bogus"); code != http.StatusBadRequest {
		t.Error("non-numeric seed accepted")
	}
}

// A shared store makes the second distinct-but-overlapping submission
// serve from cache.
func TestServeSharedStoreAcrossJobs(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Store: st})
	a := submit(t, ts, `{"spec": `+testSpec+`}`)
	if fin := poll(t, ts, a.ID); fin.Status != "done" {
		t.Fatalf("first job: %+v", fin)
	}
	cold := st.Stats()
	if cold.Puts == 0 {
		t.Fatal("first job persisted nothing")
	}
	// Same spec, different seed → different job, same store; now rerun
	// the identical spec under a different scale label? No — rerun the
	// exact spec via a fresh server (a "restarted daemon") instead.
	ts2 := newTestServer(t, Config{Store: st})
	b := submit(t, ts2, `{"spec": `+testSpec+`}`)
	if fin := poll(t, ts2, b.ID); fin.Status != "done" {
		t.Fatalf("second job: %+v", fin)
	}
	warm := st.Stats()
	if warm.Puts != cold.Puts {
		t.Errorf("restarted daemon recomputed cells: %+v -> %+v", cold, warm)
	}
	if warm.Hits() == cold.Hits() {
		t.Error("restarted daemon never consulted the store")
	}
}

func TestServeValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"empty body", ``},
		{"no spec", `{}`},
		{"invalid spec", `{"spec": {"name": ""}}`},
		{"unknown spec field", `{"spec": {"name": "x", "sizzes": [2]}}`},
		{"unknown request field", `{"spec": {"name": "x"}, "sale": "tiny"}`},
		{"bad scale", `{"spec": {"name": "x"}, "scale": "huge"}`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.name, resp.StatusCode)
		}
	}

	if code, _ := get(t, ts, "/campaigns/nope"); code != http.StatusNotFound {
		t.Errorf("unknown campaign status = %d, want 404", code)
	}
	if code, _ := get(t, ts, "/campaigns/nope/result"); code != http.StatusNotFound {
		t.Errorf("unknown result status = %d, want 404", code)
	}
	if code, _ := get(t, ts, "/cells/never/ran"); code != http.StatusNotFound {
		t.Errorf("unknown cell status = %d, want 404", code)
	}
}

func TestServeHealthz(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Store: st})
	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	var h health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Store == nil {
		t.Errorf("healthz = %+v, want ok with store stats", h)
	}
}

// POST /units is the distributed-execution worker endpoint: it must
// return exactly the canonical cell encoding core produces for the
// same (spec, scale, seed, key).
func TestServeUnitEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/units", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	code, got := post(`{"spec": ` + testSpec + `, "scale": "tiny", "seed": 42, "key": "svc"}`)
	if code != http.StatusOK {
		t.Fatalf("unit status = %d: %s", code, got)
	}
	spec, err := core.ParseCampaign([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunCampaignUnit(core.NewTestbed(42), spec, core.TinyScale, "svc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("unit endpoint bytes differ from core.RunCampaignUnit")
	}

	// Omitted scale and seed fall back to the server defaults (tiny/42
	// in this harness), so the bytes must match too.
	if _, def := post(`{"spec": ` + testSpec + `, "key": "svc"}`); !bytes.Equal(def, want) {
		t.Error("defaulted unit differs from explicit scale/seed")
	}

	for name, body := range map[string]string{
		"empty body":    ``,
		"no spec":       `{"key": "svc"}`,
		"no key":        `{"spec": ` + testSpec + `}`,
		"unknown key":   `{"spec": ` + testSpec + `, "key": "svc/nope"}`,
		"bad scale":     `{"spec": ` + testSpec + `, "key": "svc", "scale": "huge"}`,
		"invalid spec":  `{"spec": {"name": ""}, "key": "svc"}`,
		"unknown field": `{"spec": ` + testSpec + `, "key": "svc", "kee": 1}`,
	} {
		if code, body := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", name, code, body)
		}
	}
}

// Units share the worker's persistent store: a repeated unit costs a
// store read, not a recompute, and a cell computed by a daemon
// campaign is free for unit requests (and vice versa).
func TestServeUnitSharesStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Store: st})
	body := `{"spec": ` + testSpec + `, "scale": "tiny", "seed": 42, "key": "svc"}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/units", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("unit %d: status %d", i, resp.StatusCode)
		}
	}
	s := st.Stats()
	if s.Puts != 1 {
		t.Errorf("two identical units persisted %d cells, want 1 (second served warm)", s.Puts)
	}
	if s.Hits() == 0 {
		t.Error("repeated unit never consulted the store")
	}
}

// Satellite: /cells falls back to the persistent store, so cells
// survive a daemon restart (fresh Server, same store directory).
func TestServeCellStoreFallbackAcrossRestart(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Store: st})
	a := submit(t, ts, `{"spec": `+testSpec+`}`)
	if fin := poll(t, ts, a.ID); fin.Status != "done" {
		t.Fatalf("job: %+v", fin)
	}
	_, want := get(t, ts, "/cells/svc")

	// "Restart": a fresh daemon over the same store has no in-memory
	// index, but the cell must still be served — byte-identically.
	ts2 := newTestServer(t, Config{Store: st})
	code, got := get(t, ts2, "/cells/svc")
	if code != http.StatusOK {
		t.Fatalf("restarted daemon lost the cell: %d (%s)", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("store-fallback cell differs from the indexed one")
	}
	// Wrong seed still misses.
	if code, _ := get(t, ts2, "/cells/svc?seed=999"); code != http.StatusNotFound {
		t.Errorf("unknown seed served from fallback: %d", code)
	}
}

// Satellite: /cells survives MaxJobs eviction when a store is
// attached — the index entry is gone but the store still serves it.
func TestServeCellStoreFallbackAfterEviction(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Store: st, MaxJobs: 1})
	for i := 0; i < 2; i++ {
		job := submit(t, ts, fmt.Sprintf(`{"spec": %s, "seed": %d}`, testSpec, 300+i))
		if fin := poll(t, ts, job.ID); fin.Status != "done" {
			t.Fatalf("job %d: %+v", i, fin)
		}
	}
	// Job seed=300 is evicted from memory; its cell comes off disk.
	if code, _ := get(t, ts, "/cells/svc?seed=300"); code != http.StatusOK {
		t.Errorf("evicted job's cell not served from the store: %d", code)
	}
}

// Eviction by completion order with a shared cell key. Two jobs share
// one (same spec modulo description — descriptions change the job id
// but not unit keys or cell bytes); evicting one must keep the shared
// cell served, and evicting both must drop it when no store backs it.
func TestServeFinishEvictionRefcounting(t *testing.T) {
	srv := New(Config{Scale: core.TinyScale, Seed: 42, MaxJobs: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Eviction follows completion order, so let a finish before b is
	// submitted: a is then deterministically the oldest finished job.
	a := submit(t, ts, `{"spec": `+testSpec+`}`)
	poll(t, ts, a.ID)
	b := submit(t, ts, `{"spec": {"name": "svc", "platforms": ["zoom"], "description": "twin"}}`)
	if a.ID == b.ID {
		t.Fatal("description should produce a distinct job id")
	}
	poll(t, ts, b.ID)

	// A third job (distinct seed) evicts job a; the shared cell must
	// survive in job b.
	c := submit(t, ts, `{"spec": `+testSpec+`, "seed": 7}`)
	poll(t, ts, c.ID)
	if code, _ := get(t, ts, "/campaigns/"+a.ID); code != http.StatusNotFound {
		t.Fatalf("oldest job not evicted: %d", code)
	}
	if code, _ := get(t, ts, "/cells/svc"); code != http.StatusOK {
		t.Error("cell shared with a retained job was dropped on eviction")
	}

	// Evict the remaining sharer too: with no store, the cell must go.
	d := submit(t, ts, `{"spec": `+testSpec+`, "seed": 8}`)
	poll(t, ts, d.ID)
	if code, _ := get(t, ts, "/cells/svc"); code != http.StatusNotFound {
		t.Error("cell with no retaining jobs still served")
	}
}

// Two same-named specs whose unit keys match but whose cells differ
// (a single-valued caps axis adds no key segment) run one after the
// other: /cells serves the later job's bytes while both are retained,
// from a restarted daemon's store, and once eviction has dropped both.
func TestServeCellsServeLastFinishedJob(t *testing.T) {
	const (
		specA = `{"name": "svc", "platforms": ["zoom", "webex"]}`
		specB = `{"name": "svc", "platforms": ["zoom", "webex"], "caps_bps": [250000]}`
	)
	render := func(raw string) []byte {
		t.Helper()
		spec, err := core.ParseCampaign([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.RunCampaign(core.NewTestbed(42), spec, core.TinyScale)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Cells {
			if res.Cells[i].Key == "svc/zoom" {
				var b bytes.Buffer
				if err := report.WriteJSON(&b, &res.Cells[i]); err != nil {
					t.Fatal(err)
				}
				return b.Bytes()
			}
		}
		t.Fatalf("%s has no cell svc/zoom", raw)
		return nil
	}
	cellA, want := render(specA), render(specB)
	if bytes.Equal(cellA, want) {
		t.Fatal("the two specs render the same svc/zoom cell; the test needs them to differ")
	}
	runBoth := func(ts *httptest.Server) {
		t.Helper()
		for _, spec := range []string{specA, specB} {
			if fin := poll(t, ts, submit(t, ts, `{"spec": `+spec+`}`).ID); fin.Status != "done" {
				t.Fatalf("job %s: %+v", spec, fin)
			}
		}
	}
	check := func(what string, ts *httptest.Server) {
		t.Helper()
		code, got := get(t, ts, "/cells/svc/zoom")
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", what, code, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: /cells/svc/zoom is not the later job's cell", what)
		}
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Store: st})
	runBoth(ts)
	check("both jobs retained", ts)
	check("restarted daemon", newTestServer(t, Config{Store: st}))

	ts = newTestServer(t, Config{Store: st, MaxJobs: 1})
	runBoth(ts)
	third := submit(t, ts, `{"spec": `+testSpec+`, "seed": 7}`)
	poll(t, ts, third.ID)
	check("both jobs evicted", ts)
}

// A cell whose key ends in "diag" is a cell like any other: the whole
// key is tried as a cell before "/diag" selects a diagnostics document.
func TestServeCellKeyEndingInDiag(t *testing.T) {
	ts := newTestServer(t, Config{})
	spec := `{"name": "svc", "platforms": ["zoom"], "netem": [{"name": "diag", "loss_pct": 1}, {"name": "clean"}]}`
	if fin := poll(t, ts, submit(t, ts, `{"spec": `+spec+`}`).ID); fin.Status != "done" {
		t.Fatalf("job: %+v", fin)
	}
	code, body := get(t, ts, "/cells/svc/diag")
	if code != http.StatusOK {
		t.Fatalf("/cells/svc/diag status = %d (%s)", code, body)
	}
	var got core.CellResult
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Key != "svc/diag" || got.Netem != "diag" {
		t.Errorf("/cells/svc/diag served cell %q (netem %q)", got.Key, got.Netem)
	}
}

// DrainJobs returns only after every submitted campaign is terminal.
func TestServeDrainJobs(t *testing.T) {
	srv := New(Config{Scale: core.TinyScale, Seed: 42})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submit(t, ts, fmt.Sprintf(`{"spec": %s, "seed": %d}`, testSpec, 400+i)).ID)
	}
	srv.DrainJobs()
	for _, id := range ids {
		srv.mu.Lock()
		status := srv.jobs[id].status
		srv.mu.Unlock()
		if status != "done" && status != "failed" {
			t.Errorf("job %s still %q after DrainJobs", id, status)
		}
	}
}

// Jobs must list the same job set identically on every call: the map
// backing it iterates in random order, so an unsorted listing leaks
// scheduler state into what debugging tools and tests observe
// (vcalint maprange regression).
func TestServeJobsListingDeterministic(t *testing.T) {
	srv := New(Config{Scale: core.TinyScale, Seed: 42})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for i := 0; i < 5; i++ {
		submit(t, ts, fmt.Sprintf(`{"spec": %s, "seed": %d}`, testSpec, 500+i))
	}
	srv.DrainJobs()
	first, err := json.Marshal(srv.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(srv.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("Jobs() not stable across calls:\n%s\n%s", first, second)
	}
	ids := srv.Jobs()
	if len(ids) != 5 {
		t.Fatalf("Jobs() returned %d ids, want 5", len(ids))
	}
	if !sort.StringsAreSorted(ids) {
		t.Errorf("Jobs() not sorted: %q", ids)
	}
}

// Bounded concurrency: MaxRuns=1 serializes executions but completes
// them all.
func TestServeBoundedConcurrency(t *testing.T) {
	ts := newTestServer(t, Config{MaxRuns: 1})
	var ids []string
	for i := 0; i < 3; i++ {
		st := submit(t, ts, fmt.Sprintf(`{"spec": %s, "seed": %d}`, testSpec, 100+i))
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if fin := poll(t, ts, id); fin.Status != "done" {
			t.Errorf("job %s: %+v", id, fin)
		}
	}
}

// Finished jobs beyond MaxJobs are evicted — result and cell index —
// while newer jobs keep serving; shared cell keys survive as long as a
// retained job references them.
func TestServeEvictsOldFinishedJobs(t *testing.T) {
	ts := newTestServer(t, Config{MaxJobs: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		st := submit(t, ts, fmt.Sprintf(`{"spec": %s, "seed": %d}`, testSpec, 200+i))
		if fin := poll(t, ts, st.ID); fin.Status != "done" {
			t.Fatalf("job %d: %+v", i, fin)
		}
		ids = append(ids, st.ID)
	}
	if code, _ := get(t, ts, "/campaigns/"+ids[0]); code != http.StatusNotFound {
		t.Errorf("oldest job should be evicted, got %d", code)
	}
	for _, id := range ids[1:] {
		if code, _ := get(t, ts, "/campaigns/"+id+"/result"); code != http.StatusOK {
			t.Errorf("retained job %s lost its result: %d", id, code)
		}
	}
	// Retained jobs' cells stay served (scoped by their seed); the
	// evicted job's cell is gone.
	if code, _ := get(t, ts, "/cells/svc?seed=201"); code != http.StatusOK {
		t.Errorf("retained job's cell not served: %d", code)
	}
	if code, _ := get(t, ts, "/cells/svc?seed=200"); code != http.StatusNotFound {
		t.Errorf("evicted job's cell still served: %d", code)
	}
	// Resubmitting the evicted spec is accepted as a fresh job.
	re := submit(t, ts, fmt.Sprintf(`{"spec": %s, "seed": 200}`, testSpec))
	if re.ID != ids[0] {
		t.Errorf("resubmission id = %s, want %s (content-derived)", re.ID, ids[0])
	}
	if fin := poll(t, ts, re.ID); fin.Status != "done" {
		t.Errorf("resubmitted job: %+v", fin)
	}
}
