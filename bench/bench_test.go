package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"github.com/vcabench/vcabench"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("nearestRank(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("nearestRank sorted its input in place")
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("nearestRank(empty) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 4 = %v, want the lower middle 2", got)
	}
}

// Expected values come from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (3.75-1.25)/2.5 = 1", got)
	}
}

func TestAttribute(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "traces.txt"))
	if err != nil {
		t.Fatal(err)
	}
	shares, err := attribute(string(data))
	if err != nil {
		t.Fatal(err)
	}
	// 150ms of samples: qoe 50 (a math.log10 leaf charged to its qoe
	// caller) + 30 (allocation under qoe), media 30 (a NormFloat64 leaf),
	// codec 15, runtime 10 (GC, no repo frame), other 10 (internal/diag),
	// store 5 (a syscall leaf, innermost repo frame store).
	want := map[string]float64{
		"qoe.cpu_share":       80.0 / 150,
		"media.cpu_share":     30.0 / 150,
		"codec.cpu_share":     15.0 / 150,
		"runtime.cpu_share":   10.0 / 150,
		"other.cpu_share":     10.0 / 150,
		"store.cpu_share":     5.0 / 150,
		"core.cpu_share":      0,
		"runtime.alloc_share": 30.0 / 150,
	}
	for name, w := range want {
		if got := shares[name]; math.Abs(got-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	sum := 0.0
	for _, d := range perLayer {
		if v, ok := shares[d.name]; ok && d.name != "runtime.alloc_share" {
			sum += v
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cpu shares sum to %v, want 1", sum)
	}
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	for name := range shares {
		if !declared[name] {
			t.Errorf("attribute emits undeclared metric %s", name)
		}
	}
	if _, err := attribute("-----------+----\n  garbage frame\n"); err == nil {
		t.Errorf("attribute accepted a block without a sample value")
	}
}

// TestCatalogMatchesBenchmarkJSON checks that every workload and metric
// the binary can emit is declared in BENCHMARK.json with the same unit,
// and that every name is well-formed.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if sp.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, binary default %d", sp.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var specW []string
	for _, w := range sp.Workloads {
		specW = append(specW, w.Name)
	}
	var binW []string
	for _, w := range workloads {
		binW = append(binW, w.name)
		if !name.MatchString(w.name) {
			t.Errorf("bad workload name %q", w.name)
		}
	}
	if fmt.Sprint(specW) != fmt.Sprint(binW) {
		t.Errorf("BENCHMARK.json workloads %v, binary %v", specW, binW)
	}
	check := func(kind string, decls []metricDecl, spec map[string]string) {
		if len(decls) != len(spec) {
			t.Errorf("%s: binary emits %d metrics, BENCHMARK.json declares %d", kind, len(decls), len(spec))
		}
		for _, d := range decls {
			if !name.MatchString(d.name) {
				t.Errorf("bad metric name %q", d.name)
			}
			if u, ok := spec[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s [%s] declared as [%s] (present %v)", kind, d.name, d.unit, u, ok)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range sp.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || m.Better != "lower" {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	layer := map[string]string{}
	for _, m := range sp.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
}

func TestTimedPassesFailureAccounting(t *testing.T) {
	ref := digest{1}
	for _, c := range []struct {
		name     string
		d        digest
		err      error
		afterErr error
		failed   int
	}{
		{"match", ref, nil, nil, 0},
		{"other digest", digest{2}, nil, nil, 1},
		{"error", ref, errors.New("boom"), nil, 1},
		{"store error", ref, fmt.Errorf("fig12: %w: disk full", vcabench.ErrStore), nil, 1},
		{"harvest error", ref, nil, errors.New("bad span"), 1},
	} {
		after := func() error { return c.afterErr }
		durs, failed := timedPasses(func() (digest, error) { return c.d, c.err }, after, ref, 0)
		if len(durs) != 1 || failed != c.failed {
			t.Errorf("%s: %d passes, %d failed; want 1 pass, %d failed", c.name, len(durs), failed, c.failed)
		}
	}
	calls := 0
	durs, failed := timedPasses(func() (digest, error) {
		calls++
		if calls%3 == 0 {
			return digest{9}, nil
		}
		return ref, nil
	}, nil, ref, 20*time.Millisecond)
	if len(durs) != calls || failed != calls/3 {
		t.Errorf("%d calls, %d passes, %d failed; want every third to fail", calls, len(durs), failed)
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", []float64{1.01, 1.00, 0.99, 1.00, 1.01}, false, "ok"},
		{"slower", []float64{1.20, 1.21, 1.19, 1.20, 1.22}, false, "worse"},
		{"faster", []float64{0.80, 0.81, 0.79, 0.80, 0.82}, false, "better"},
		{"higher is better", []float64{0.80, 0.81, 0.79, 0.80, 0.82}, true, "worse"},
		{"noisy", []float64{0.5, 1.5, 0.7, 1.3, 1.0}, false, "unresolved"},
		{"noisy but all faster", []float64{0.5, 0.9, 0.6, 0.8, 0.7}, false, "better"},
	} {
		rel := (quartiles(c.b)[1] - quartiles(a)[1]) / quartiles(a)[1]
		if got := verdict(a, c.b, rel, 0.10, c.higher); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSmokeLagSweep runs the lag-sweep code path for real — set-up,
// serial references, one timed pass, result document — on its first
// artifact only, so it stays within a few seconds.
func TestSmokeLagSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation run")
	}
	w, _ := lookup("lag-sweep")
	w.artifacts = w.artifacts[:1]
	t.Setenv("TMPDIR", t.TempDir())
	res, info, err := run(w, 7, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 1 || res.Failed != 0 || info.passes != 1 {
		t.Fatalf("result %+v, info %+v", res, info)
	}
	path := filepath.Join(t.TempDir(), "run.out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := printResult(f, w.name, 7, info, res); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	workload, traced, back, err := readRun(path)
	if err != nil {
		t.Fatal(err)
	}
	if workload != "lag-sweep" || traced || len(back.Metrics) != len(endToEnd) {
		t.Fatalf("read back %s traced=%v with %d metrics", workload, traced, len(back.Metrics))
	}
	for _, d := range endToEnd {
		m, ok := back.Metrics[d.name]
		if !ok || m.Unit != d.unit || !(m.Value > 0) {
			t.Errorf("%s = %+v (present %v), want a positive value in %s", d.name, m, ok, d.unit)
		}
	}
}
