package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vcabench/vcabench/internal/core"
	"github.com/vcabench/vcabench/internal/obs"
	"github.com/vcabench/vcabench/internal/obs/obstest"
)

// unitEcho is a minimal /units worker that returns a fixed payload,
// cheap enough to hammer in the race test.
func unitEcho(t *testing.T, fail func() bool) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, "{}")
			return
		}
		if fail != nil && fail() {
			http.Error(w, "induced failure", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("cellbytes"))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// A telemetry-armed pool exports fleet counters whose per-worker
// breakdown sums to the pool totals in every scrape.
func TestPoolMetrics(t *testing.T) {
	w1, w2 := unitEcho(t, nil), unitEcho(t, nil)
	tel := obs.NewTelemetry()
	opt := testOptions()
	opt.Telemetry = tel
	p, err := New([]string{w1.URL, w2.URL}, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := p.DispatchUnit(core.UnitRequest{Key: "k" + strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := tel.Metrics.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`vcabench_cluster_units_total{result="remote"} 10`,
		`vcabench_cluster_units_total{result="error"} 0`,
		`vcabench_cluster_units_total{result="fallback"} 0`,
		"vcabench_cluster_retries_total 0",
		`vcabench_cluster_worker_cooldowns_total{worker="` + w1.URL + `"} 0`,
		`vcabench_cluster_worker_inflight{worker="` + w1.URL + `"} 0`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	if probs := obstest.LintText([]byte(text)); len(probs) != 0 {
		t.Errorf("lint problems: %v", probs)
	}
	var done float64
	for _, url := range []string{w1.URL, w2.URL} {
		line := `vcabench_cluster_worker_units_total{worker="` + url + `",result="done"} `
		// Label order within a series follows emission order (worker,
		// result); find the series and read its value.
		i := strings.Index(text, line)
		if i < 0 {
			t.Fatalf("missing per-worker done series for %s in:\n%s", url, text)
		}
		rest := text[i+len(line):]
		v, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, '\n')], 64)
		if err != nil {
			t.Fatal(err)
		}
		done += v
	}
	if done != 10 {
		t.Errorf("per-worker done sums to %g, want 10", done)
	}
}

// Failed attempts show up in errors, retries and cooldowns, and Stats
// agrees with the scrape.
func TestPoolMetricsFailures(t *testing.T) {
	w1 := unitEcho(t, func() bool { return true })
	tel := obs.NewTelemetry()
	opt := testOptions()
	opt.Telemetry = tel
	opt.Retries = 2
	opt.Cooldown = time.Nanosecond // readmit instantly: every retry re-attempts
	p, err := New([]string{w1.URL}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.DispatchUnit(core.UnitRequest{Key: "k"}); err == nil {
		t.Fatal("want dispatch failure")
	}
	st := p.Stats()
	if st.Fallbacks != 1 || st.Errors == 0 || st.Retries == 0 {
		t.Errorf("stats = %+v, want 1 fallback with errors and retries", st)
	}
	if st.Workers[0].Cooldowns == 0 {
		t.Errorf("worker never entered cooldown: %+v", st.Workers[0])
	}
	var b strings.Builder
	if err := tel.Metrics.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, `vcabench_cluster_units_total{result="fallback"} 1`+"\n") {
		t.Errorf("fallback not exported:\n%s", text)
	}
	if !strings.Contains(text, fmt.Sprintf("vcabench_cluster_retries_total %d\n", st.Retries)) {
		t.Errorf("retries_total disagrees with Stats (%d):\n%s", st.Retries, text)
	}
}

// The torn-view regression test: hammer dispatch from many goroutines
// while scraping and snapshotting concurrently. Under -race this
// catches unsynchronized counter access; the invariant checks catch
// views where per-worker counts drifted from pool totals.
func TestPoolStatsNoTornViews(t *testing.T) {
	w1, w2 := unitEcho(t, nil), unitEcho(t, nil)
	tel := obs.NewTelemetry()
	opt := testOptions()
	opt.Telemetry = tel
	p, err := New([]string{w1.URL, w2.URL}, opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.DispatchUnit(core.UnitRequest{Key: fmt.Sprintf("k%d-%d", g, i)})
			}
		}(g)
	}
	var scrapes sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := p.Stats()
				var done, errs uint64
				for _, w := range st.Workers {
					done += w.Done
					errs += w.Errs
				}
				// The single-lock snapshot invariant: per-worker sums
				// can never exceed the pool totals in the same view.
				if done > st.Remote || errs > st.Errors {
					t.Errorf("torn stats view: workers done=%d errs=%d vs pool remote=%d errors=%d",
						done, errs, st.Remote, st.Errors)
					return
				}
				var b strings.Builder
				if err := tel.Metrics.WriteText(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()
	st := p.Stats()
	if st.Remote != 400 {
		t.Errorf("remote = %d, want 400", st.Remote)
	}
	var done uint64
	for _, w := range st.Workers {
		done += w.Done
	}
	if done != st.Remote {
		t.Errorf("final per-worker done %d != remote %d", done, st.Remote)
	}
}
