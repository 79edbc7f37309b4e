package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/vcabench/vcabench/internal/obs"
	"github.com/vcabench/vcabench/internal/obs/obstest"
	"github.com/vcabench/vcabench/internal/store"
)

// scrape GETs /metrics and returns the exposition text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// A telemetry-armed daemon serves one scrape endpoint covering serve,
// engine and store series together, and the readings agree with the
// work actually done.
func TestServeMetricsEndpoint(t *testing.T) {
	tel := obs.NewTelemetry()
	cs, err := store.OpenOptions(t.TempDir(), store.Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Store: cs, Telemetry: tel})

	// Before any work: the catalog is pre-created at zero and lints.
	text := scrape(t, ts.URL)
	for _, want := range []string{
		"vcabench_serve_campaigns_total 0",
		"vcabench_serve_units_total 0",
		`vcabench_jobs{status="done"} 0`,
		"vcabench_units_inflight 0",
		`vcabench_units_total{tier="local"} 0`,
		"vcabench_store_misses_total 0",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	if probs := obstest.LintText([]byte(text)); len(probs) != 0 {
		t.Errorf("lint problems before work: %v", probs)
	}

	// One campaign (1 cell at tiny scale) and one direct unit.
	st := submit(t, ts, `{"spec": `+testSpec+`}`)
	if fin := poll(t, ts, st.ID); fin.Status != "done" {
		t.Fatalf("terminal status = %+v", fin)
	}
	resp, err := http.Post(ts.URL+"/units", "application/json",
		strings.NewReader(`{"spec": `+testSpec+`, "key": "svc"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unit status = %d", resp.StatusCode)
	}

	text = scrape(t, ts.URL)
	for _, want := range []string{
		"vcabench_serve_campaigns_total 1",
		"vcabench_serve_units_total 1",
		`vcabench_jobs{status="done"} 1`,
		`vcabench_jobs{status="running"} 0`,
		"vcabench_units_inflight 0",
		// Campaign computed the cell locally; the unit request then
		// resolved through the engine too, as a hit on the shared
		// store's memory front, so it counts in the engine's tiers.
		`vcabench_units_total{tier="local"} 1`,
		`vcabench_units_total{tier="store"} 1`,
		`vcabench_store_hits_total{tier="mem"} 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	if probs := obstest.LintText([]byte(text)); len(probs) != 0 {
		t.Errorf("lint problems after work: %v", probs)
	}
}

// Resubmitting a deduplicated spec must not double-count campaigns.
func TestServeMetricsDedupe(t *testing.T) {
	tel := obs.NewTelemetry()
	ts := newTestServer(t, Config{Telemetry: tel})
	a := submit(t, ts, `{"spec": `+testSpec+`}`)
	poll(t, ts, a.ID)
	b := submit(t, ts, `{"spec": `+testSpec+`}`)
	if a.ID != b.ID {
		t.Fatalf("dedupe broke: %s vs %s", a.ID, b.ID)
	}
	text := scrape(t, ts.URL)
	if !strings.Contains(text, "vcabench_serve_campaigns_total 1\n") {
		t.Errorf("resubmission double-counted:\n%s", text)
	}
}

// An unobserved server must not mount /metrics.
func TestServeWithoutTelemetry(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("bare server serves /metrics: %d", resp.StatusCode)
	}
}
