package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/vcabench/vcabench/internal/obs/obstest"
)

func mustText(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return b.String()
}

func TestCounterGaugeRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("vcabench_events_total", "Events.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("vcabench_depth", "Depth.")
	g.Set(3)
	g.Inc()
	g.Add(-2)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %g, want 2", got)
	}
	text := mustText(t, r)
	for _, want := range []string{
		"# HELP vcabench_events_total Events.\n",
		"# TYPE vcabench_events_total counter\n",
		"vcabench_events_total 5\n",
		"# TYPE vcabench_depth gauge\n",
		"vcabench_depth 2\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}

func TestGetOrCreateReturnsSameSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("vcabench_shared_total", "Shared.")
	b := r.Counter("vcabench_shared_total", "Shared.")
	a.Inc()
	b.Inc()
	if got := a.Value(); got != 2 {
		t.Fatalf("shared counter = %d, want 2 (get-or-create must return the same series)", got)
	}
}

func TestSchemaMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(r *Registry)
	}{
		{"type", func(r *Registry) {
			r.Counter("vcabench_x_total", "X.")
			r.Gauge("vcabench_x_total", "X.")
		}},
		{"help", func(r *Registry) {
			r.Counter("vcabench_x_total", "X.")
			r.Counter("vcabench_x_total", "Y.")
		}},
		{"labels", func(r *Registry) {
			r.CounterVec("vcabench_x_total", "X.", "a")
			r.CounterVec("vcabench_x_total", "X.", "b")
		}},
		{"badname", func(r *Registry) { r.Counter("9starts_with_digit", "X.") }},
		{"badlabel", func(r *Registry) { r.CounterVec("vcabench_x_total", "X.", "le") }},
		{"arity", func(r *Registry) { r.CounterVec("vcabench_x_total", "X.", "a").With("v", "w") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("want panic")
				}
			}()
			tc.f(NewRegistry())
		})
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("vcabench_esc_total", "Escaping.", "path")
	v.With(`a\b"c` + "\nd").Inc()
	text := mustText(t, r)
	want := `vcabench_esc_total{path="a\\b\"c\nd"} 1` + "\n"
	if !strings.Contains(text, want) {
		t.Fatalf("escaped series %q missing in:\n%s", want, text)
	}
	if probs := obstest.LintText([]byte(text)); len(probs) != 0 {
		t.Fatalf("lint problems: %v", probs)
	}
}

func TestSeriesOrderingDeterministic(t *testing.T) {
	// Two registries populated in opposite orders must render
	// byte-identically: families sorted by name, series by labels.
	build := func(order []string) string {
		r := NewRegistry()
		v := r.CounterVec("vcabench_b_total", "B.", "w")
		for _, w := range order {
			v.With(w).Inc()
		}
		if order[0] == "z" {
			r.Gauge("vcabench_a", "A.").Set(1)
		} else {
			r.Gauge("vcabench_a", "A.").Set(1)
		}
		return mustText(t, r)
	}
	t1 := build([]string{"a", "m", "z"})
	t2 := build([]string{"z", "m", "a"})
	if t1 != t2 {
		t.Fatalf("exposition depends on creation order:\n%s\nvs\n%s", t1, t2)
	}
	ia := strings.Index(t1, "vcabench_a")
	ib := strings.Index(t1, "vcabench_b_total")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("families not sorted by name:\n%s", t1)
	}
}

func TestHistogramInvariants(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vcabench_lat_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	text := mustText(t, r)
	for _, want := range []string{
		`vcabench_lat_seconds_bucket{le="0.1"} 1`,
		`vcabench_lat_seconds_bucket{le="1"} 2`,
		`vcabench_lat_seconds_bucket{le="10"} 3`,
		`vcabench_lat_seconds_bucket{le="+Inf"} 4`,
		`vcabench_lat_seconds_sum 55.55`,
		`vcabench_lat_seconds_count 4`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	if probs := obstest.LintText([]byte(text)); len(probs) != 0 {
		t.Fatalf("lint problems: %v", probs)
	}
}

func TestHistogramBoundaryIsInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vcabench_edge_seconds", "Edge.", []float64{1})
	h.Observe(1) // le is <=, so an observation exactly at the bound counts
	text := mustText(t, r)
	if !strings.Contains(text, `vcabench_edge_seconds_bucket{le="1"} 1`+"\n") {
		t.Fatalf("bound not inclusive:\n%s", text)
	}
}

func TestGroupCollectorAndCollision(t *testing.T) {
	r := NewRegistry()
	r.RegisterGroup(func(g *Group) {
		g.Emit("vcabench_jobs", "Jobs by status.", TypeGauge,
			Sample{Labels: []Label{{Name: "status", Value: "running"}}, Value: 2},
			Sample{Labels: []Label{{Name: "status", Value: "done"}}, Value: 7},
		)
	})
	text := mustText(t, r)
	iDone := strings.Index(text, `vcabench_jobs{status="done"} 7`)
	iRun := strings.Index(text, `vcabench_jobs{status="running"} 2`)
	if iDone < 0 || iRun < 0 || iDone > iRun {
		t.Fatalf("group samples missing or unsorted:\n%s", text)
	}
	if probs := obstest.LintText([]byte(text)); len(probs) != 0 {
		t.Fatalf("lint problems: %v", probs)
	}

	// A group family colliding with an instrument family is an
	// exposition error, not a silent merge.
	r.Gauge("vcabench_jobs", "Jobs by status.")
	var b strings.Builder
	if err := r.WriteText(&b); err == nil {
		t.Fatalf("want collision error, got output:\n%s", b.String())
	}
}

func TestHandlerServesText(t *testing.T) {
	r := NewRegistry()
	r.Counter("vcabench_hits_total", "Hits.").Inc()
	rr := httptest.NewRecorder()
	Handler(r).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "vcabench_hits_total 1\n") {
		t.Fatalf("body:\n%s", rr.Body.String())
	}
}

func TestConcurrentInstrumentsAndScrapes(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("vcabench_par_total", "Parallel.", "w")
	h := r.Histogram("vcabench_par_seconds", "Parallel.", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			for i := 0; i < 500; i++ {
				v.With(name).Inc()
				h.Observe(float64(i) / 1000)
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			text := mustText(t, r)
			if probs := obstest.LintText([]byte(text)); len(probs) != 0 {
				t.Errorf("lint under concurrency: %v", probs)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
	total := uint64(0)
	for w := 0; w < 8; w++ {
		total += v.With(string(rune('a' + w))).Value()
	}
	if total != 8*500 {
		t.Fatalf("counter total = %d, want %d", total, 8*500)
	}
}

func TestLintCatchesBadPayloads(t *testing.T) {
	cases := []struct {
		name    string
		payload string
		wantSub string
	}{
		{"no metadata", "orphan_total 1\n", "no preceding HELP/TYPE"},
		{"counter suffix",
			"# HELP x_hits Hits.\n# TYPE x_hits counter\nx_hits 1\n",
			"should end in _total"},
		{"unknown type",
			"# HELP x X.\n# TYPE x widget\nx 1\n",
			"unknown TYPE"},
		{"duplicate series",
			"# HELP x_total X.\n# TYPE x_total counter\nx_total{a=\"1\"} 1\nx_total{a=\"1\"} 2\n",
			"duplicate series"},
		{"non-cumulative histogram",
			"# HELP h H.\n# TYPE h histogram\n" +
				"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
			"not cumulative"},
		{"missing inf",
			"# HELP h H.\n# TYPE h histogram\n" +
				"h_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
			"missing le=\"+Inf\""},
		{"inf count mismatch",
			"# HELP h H.\n# TYPE h histogram\n" +
				"h_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n",
			"!= _count"},
		{"unterminated label",
			"# HELP x_total X.\n# TYPE x_total counter\nx_total{a=\"1} 1\n",
			"unterminated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probs := obstest.LintText([]byte(tc.payload))
			found := false
			for _, p := range probs {
				if strings.Contains(p, tc.wantSub) {
					found = true
				}
			}
			if !found {
				t.Fatalf("want problem containing %q, got %v", tc.wantSub, probs)
			}
		})
	}
}

func TestLintAcceptsCleanPayload(t *testing.T) {
	r := NewRegistry()
	r.Counter("vcabench_a_total", "A.").Inc()
	r.GaugeVec("vcabench_b", "B.", "x", "y").With("1", "2").Set(3)
	r.Histogram("vcabench_c_seconds", "C.", nil).Observe(0.02)
	text := mustText(t, r)
	if probs := obstest.LintText([]byte(text)); len(probs) != 0 {
		t.Fatalf("clean payload flagged: %v\n%s", probs, text)
	}
}
