package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vcabench/vcabench/internal/core"
	"github.com/vcabench/vcabench/internal/report"
	"github.com/vcabench/vcabench/internal/serve"
	"github.com/vcabench/vcabench/internal/store"
)

// testGrid is a six-cell campaign, small enough to fan across loopback
// workers quickly but wide enough that sharding actually splits it.
var testGrid = core.Campaign{
	Name:      "dist",
	Platforms: []string{"zoom", "webex", "meet"},
	Sizes:     []int{2, 3},
}

// testOptions keeps retries fast on loopback.
func testOptions() Options {
	return Options{Backoff: time.Millisecond, Cooldown: time.Minute}
}

// newWorker spins an in-process vcabenchd (optionally sharing a store).
func newWorker(t *testing.T, cs core.CellStore) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{Store: cs}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// localJSON renders the campaign single-process — the reference bytes
// every distributed variant must reproduce exactly.
func localJSON(t *testing.T, seed int64) []byte {
	t.Helper()
	res, err := core.RunCampaign(core.NewTestbed(seed), testGrid, core.TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func distributedJSON(t *testing.T, seed int64, p *Pool) []byte {
	t.Helper()
	tb := core.NewTestbed(seed).WithDispatcher(p)
	res, err := core.RunCampaign(tb, testGrid, core.TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A worker that dies mid-campaign: its units fail over to the healthy
// worker (or locally) and the merged bytes never change.
func TestDistributedFailoverMidCampaign(t *testing.T) {
	healthy := newWorker(t, nil)

	// The flaky worker serves one unit, then 500s forever — a crash
	// that strikes after the campaign has already started. Two of the
	// grid's keys prefer this worker, so at least one unit hits the
	// crash and must fail over.
	var served atomic.Int64
	inner := serve.New(serve.Config{}).Handler()
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/units") && served.Add(1) > 1 {
			http.Error(w, "worker crashed", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	p, err := New([]string{flaky.URL, healthy.URL}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := distributedJSON(t, 7, p), localJSON(t, 7); !bytes.Equal(got, want) {
		t.Errorf("failover changed the merged result:\n--- distributed ---\n%s\n--- local ---\n%s", got, want)
	}
	st := p.Stats()
	if st.Remote+st.Fallbacks != 6 {
		t.Errorf("stats = %+v: %d remote + %d fallbacks should cover 6 cells", st, st.Remote, st.Fallbacks)
	}
	if st.Errors == 0 {
		t.Error("the crashed worker never surfaced an error; failover path untested")
	}
}

// A fully dead fleet degrades to plain local execution, byte-identical.
func TestDistributedAllWorkersDead(t *testing.T) {
	dead1, dead2 := httptest.NewServer(http.NotFoundHandler()), httptest.NewServer(http.NotFoundHandler())
	dead1.Close()
	dead2.Close()
	p, err := New([]string{dead1.URL, dead2.URL}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := distributedJSON(t, 9, p), localJSON(t, 9); !bytes.Equal(got, want) {
		t.Errorf("dead fleet changed the merged result:\n--- distributed ---\n%s\n--- local ---\n%s", got, want)
	}
	if st := p.Stats(); st.Remote != 0 || st.Fallbacks != 6 {
		t.Errorf("stats = %+v, want 0 remote and 6 local fallbacks", st)
	}
}

// The per-worker in-flight bound holds even when the whole campaign is
// dispatched at once.
func TestDistributedInFlightBound(t *testing.T) {
	var cur, max atomic.Int64
	inner := serve.New(serve.Config{MaxRuns: 16}).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/units") {
			n := cur.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			defer cur.Add(-1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	opt := testOptions()
	opt.InFlight = 2
	p, err := New([]string{ts.URL}, opt)
	if err != nil {
		t.Fatal(err)
	}
	distributedJSON(t, 11, p)
	if got := max.Load(); got > 2 {
		t.Errorf("observed %d concurrent unit requests, want <= 2", got)
	}
	if st := p.Stats(); st.Remote != 6 {
		t.Errorf("stats = %+v, want 6 remote", st)
	}
}

// Workers sharing one persistent store serve repeated campaigns from
// cache: the second distributed run recomputes nothing anywhere.
func TestDistributedSharedStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := newWorker(t, st), newWorker(t, st)
	p, err := New([]string{w1.URL, w2.URL}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	first := distributedJSON(t, 42, p)
	cold := st.Stats()
	if cold.Puts == 0 {
		t.Fatal("workers persisted nothing")
	}
	again := distributedJSON(t, 42, p)
	if !bytes.Equal(first, again) {
		t.Error("warm distributed rerun changed bytes")
	}
	if warm := st.Stats(); warm.Puts != cold.Puts {
		t.Errorf("warm rerun recomputed cells: %+v -> %+v", cold, warm)
	}
}

// Healthy reports only the reachable share of the fleet.
func TestHealthy(t *testing.T) {
	up := newWorker(t, nil)
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()
	p, err := New([]string{up.URL, down.URL}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	h := p.Healthy()
	if len(h) != 1 || h[0] != up.URL {
		t.Errorf("Healthy() = %v, want [%s]", h, up.URL)
	}
}

// A worker in cooldown is skipped; after the cooldown it must pass a
// probe before taking units again.
func TestCooldownAndReadmission(t *testing.T) {
	ts := newWorker(t, nil)
	opt := testOptions()
	opt.Cooldown = time.Hour
	p, err := New([]string{ts.URL}, opt)
	if err != nil {
		t.Fatal(err)
	}
	w := p.workers[0]
	w.markDown(opt.Cooldown)
	if p.available(w) {
		t.Error("worker available during cooldown")
	}
	// Cooldown elapsed, daemon healthy: one probe readmits it.
	w.markDown(-time.Second)
	if !p.available(w) {
		t.Error("healthy worker not readmitted after cooldown")
	}
	if st := w.state.Load(); st.suspect {
		t.Error("readmitted worker still marked suspect")
	}
	// Cooldown elapsed but daemon gone: the probe fails and restarts
	// the cooldown.
	ts.Close()
	w.markDown(-time.Second)
	if p.available(w) {
		t.Error("unreachable worker readmitted")
	}
	if st := w.state.Load(); !time.Now().Before(st.downUntil) {
		t.Error("failed probe did not restart the cooldown")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("empty fleet accepted")
	}
	for _, bad := range []string{"", "not a url", "ftp://x", "http://"} {
		if _, err := New([]string{bad}, Options{}); err == nil {
			t.Errorf("worker URL %q accepted", bad)
		}
	}
	if _, err := New([]string{"http://a:1", "http://a:1/"}, Options{}); err == nil {
		t.Error("duplicate worker URL accepted")
	}
}
