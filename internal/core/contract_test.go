package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/vcabench/vcabench/internal/cluster"
	"github.com/vcabench/vcabench/internal/core"
	"github.com/vcabench/vcabench/internal/diag"
	"github.com/vcabench/vcabench/internal/obs"
	"github.com/vcabench/vcabench/internal/report"
	"github.com/vcabench/vcabench/internal/serve"
	"github.com/vcabench/vcabench/internal/store"
)

// contractSpecs is every example spec the suite runs, keyed by its
// directory under examples/: the number of units it schedules (cells
// times replicas) and a string its JSON must contain.
var contractSpecs = map[string]struct {
	units int
	mark  string
}{
	"campaign":    {units: 48, mark: `"mos"`},
	"traces":      {units: 18, mark: `"rate_over_time"`},
	"replication": {units: 30, mark: `"replicas"`},
}

// contractArtifacts is every experiment the artifacts group renders
// by ID, with the number of units it stores cold, at each scale.
var contractArtifacts = []struct {
	scale core.Scale
	id    string
	units int
}{
	{core.TinyScale, "fig12", 30},
	{core.TinyScale, "fig13", 3},
	{core.TinyScale, "fig17", 24},
	{core.TinyScale, "fig4", 3},
	{core.TinyScale, "ablate-p2p", 2},
	// Quick scale runs two sessions per cell, so carried frame storage
	// also passes from session to session.
	{core.QuickScale, "fig12", 30},
}

var contractSeeds = []int64{42, 43}

// TestContract checks the repository's core contract in one place: a
// campaign renders the same bytes at any worker count, cache
// temperature, fleet shape or telemetry setting. Every example spec
// runs at TinyScale and two seeds against a serial cold reference, one
// subtest per axis, named <spec>/seed=<s>/<axis>. The artifacts group
// does the same for experiments rendered by ID.
func TestContract(t *testing.T) {
	paths, err := filepath.Glob("../../examples/*/spec.json")
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[string]bool)
	for _, path := range paths {
		name := filepath.Base(filepath.Dir(path))
		found[name] = true
		want, ok := contractSpecs[name]
		if !ok {
			t.Errorf("examples/%s/spec.json has no entry in contractSpecs", name)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := core.ParseCampaign(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var prev *rendered
			for _, seed := range contractSeeds {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					c := &contractCase{name: name, spec: spec, raw: data, seed: seed, n: want.units, mark: want.mark}
					ref := c.run(t, prev)
					prev = &ref
				})
			}
		})
	}
	//vcalint:ignore maprange order-independent check; each entry is looked up on its own
	for name := range contractSpecs {
		if !found[name] {
			t.Errorf("contractSpecs lists %s, but examples/%s/spec.json does not exist", name, name)
		}
	}

	t.Run("artifacts", func(t *testing.T) {
		t.Parallel()
		for _, a := range contractArtifacts {
			t.Run(a.scale.Name+"/"+a.id, func(t *testing.T) { checkArtifact(t, a.scale, a.id, a.units) })
		}
	})
}

// rendered is one campaign run as a user sees it: the JSON document
// and the text table, plus the result they were rendered from.
type rendered struct {
	json, table []byte
	res         *core.CampaignResult
}

// contractCase is one (spec, seed) row of the matrix: the spec, its
// unit count and a string its JSON must contain.
type contractCase struct {
	name string
	spec core.Campaign
	raw  []byte
	seed int64
	n    int
	mark string
}

// run renders the serial cold reference, then every axis against it;
// prev is the previous seed's reference, if any. It returns the
// reference.
func (c *contractCase) run(t *testing.T, prev *rendered) rendered {
	refTB := core.NewTestbed(c.seed).SetParallelism(1)
	ref := c.render(t, refTB)
	if !bytes.Contains(ref.json, []byte(c.mark)) {
		t.Fatalf("reference JSON lacks %s", c.mark)
	}
	if bytes.Contains(ref.json, []byte("drops_queue")) {
		t.Fatal("bare reference JSON carries drops_queue")
	}

	for _, p := range []int{3, 8} {
		t.Run(fmt.Sprintf("parallel=%d", p), func(t *testing.T) {
			sameRender(t, ref, c.render(t, core.NewTestbed(c.seed).SetParallelism(p)))
		})
	}
	// A second run on the reference testbed: its in-process cell store
	// serves every unit.
	t.Run("memo-warm", func(t *testing.T) {
		sameRender(t, ref, c.render(t, refTB))
	})
	t.Run("store", func(t *testing.T) {
		coldThenWarm(t, t.TempDir(), c.seed, c.n, func(t *testing.T, tb *core.Testbed) {
			sameRender(t, ref, c.render(t, tb))
		})
	})
	t.Run("fleet", func(t *testing.T) { c.checkFleet(t, ref) })
	t.Run("telemetry", func(t *testing.T) { c.checkTelemetry(t, ref) })
	t.Run("daemon", func(t *testing.T) { c.checkDaemon(t, ref) })
	if c.name == "traces" {
		c.checkDiagnostics(t, ref)
	}
	if prev != nil {
		t.Run("seeds-differ", func(t *testing.T) {
			if bytes.Equal(prev.json, ref.json) {
				t.Errorf("seed %d produced the previous seed's JSON", c.seed)
			}
		})
	}
	return ref
}

func (c *contractCase) render(t *testing.T, tb *core.Testbed) rendered {
	t.Helper()
	res, err := core.RunCampaign(tb, c.spec, core.TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	var js, tbl bytes.Buffer
	if err := report.WriteJSON(&js, res); err != nil {
		t.Fatal(err)
	}
	res.RenderTable().Render(&tbl)
	if err := tb.StoreErr(); err != nil {
		t.Fatal(err)
	}
	return rendered{js.Bytes(), tbl.Bytes(), res}
}

// checkFleet shards the campaign across two in-process workers that
// share one store directory, each exporting its own metrics.
func (c *contractCase) checkFleet(t *testing.T, ref rendered) {
	dir := t.TempDir()
	configs := make([]serve.Config, 2)
	for i := range configs {
		tel := obs.NewTelemetry()
		st, err := store.OpenOptions(dir, store.Options{Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		configs[i] = serve.Config{Store: st, Telemetry: tel}
	}
	pool, urls := startFleet(t, configs...)
	sameRender(t, ref, c.render(t, core.NewTestbed(c.seed).WithDispatcher(pool)))

	ps := pool.Stats()
	if ps.Remote != uint64(c.n) || ps.Errors != 0 || ps.Fallbacks != 0 {
		t.Errorf("pool: %d remote, %d errors, %d fallbacks; want %d, 0, 0", ps.Remote, ps.Errors, ps.Fallbacks, c.n)
	}
	served := 0
	for i, url := range urls {
		text := httpGet(t, url+"/metrics")
		v := metricValue(t, text, "vcabench_serve_units_total")
		if v == 0 {
			t.Errorf("worker %d served no units", i)
		}
		served += v
		if got := metricValue(t, text, "vcabench_units_inflight"); got != 0 {
			t.Errorf("worker %d: vcabench_units_inflight %d after the campaign", i, got)
		}
		if !strings.Contains(text, `vcabench_store_hits_total{tier="mem"} `) {
			t.Errorf("worker %d exports no store series", i)
		}
	}
	if served != c.n {
		t.Errorf("workers served %d units, want %d", served, c.n)
	}
	var done uint64
	for _, w := range ps.Workers {
		done += w.Done
	}
	if done != ps.Remote {
		t.Errorf("per-worker done %d does not add up to %d remote units", done, ps.Remote)
	}
}

// startFleet serves each config behind httptest and returns a pool
// over the workers, with their URLs.
func startFleet(t *testing.T, configs ...serve.Config) (*cluster.Pool, []string) {
	var urls []string
	for _, cfg := range configs {
		ts := httptest.NewServer(serve.New(cfg).Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	pool, err := cluster.New(urls, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pool, urls
}

// checkDaemon submits the spec to a serve handler: the result document
// must equal the reference, and every cell must be served by its key
// as the reference renders it.
func (c *contractCase) checkDaemon(t *testing.T, ref rendered) {
	ts := httptest.NewServer(serve.New(serve.Config{Scale: core.TinyScale}).Handler())
	defer ts.Close()
	same(t, ref.json, c.daemonResult(t, ts.URL, len(ref.res.Cells)))
	for i := range ref.res.Cells {
		cell := &ref.res.Cells[i]
		var want bytes.Buffer
		if err := report.WriteJSON(&want, cell); err != nil {
			t.Fatal(err)
		}
		same(t, want.Bytes(), []byte(httpGet(t, fmt.Sprintf("%s/cells/%s?seed=%d", ts.URL, cell.Key, c.seed))))
	}
}

func (c *contractCase) checkTelemetry(t *testing.T, ref rendered) {
	tel := obs.NewTelemetry()
	tel.Tracer = obs.NewTracer(tel.Clock)
	sameRender(t, ref, c.render(t, core.NewTestbed(c.seed).SetParallelism(4).WithTelemetry(tel)))
	if got := tel.Tracer.CountTier(obs.TierUnit); got != c.n {
		t.Errorf("%d unit spans, want %d", got, c.n)
	}
	if got := tel.Tracer.CountTier(obs.TierCampaign); got != 1 {
		t.Errorf("%d campaign spans, want 1", got)
	}
	var text strings.Builder
	if err := tel.Metrics.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		fmt.Sprintf(`vcabench_units_total{tier="local"} %d`, c.n),
		"vcabench_units_inflight 0",
	} {
		if !strings.Contains(text.String(), line+"\n") {
			t.Errorf("metrics lack %q", line)
		}
	}
}

// checkDiagnostics runs the flight-recorder axes. Armed results are
// compared with an armed serial reference; bare ones with ref.
func (c *contractCase) checkDiagnostics(t *testing.T, ref rendered) {
	armed := func(t *testing.T, tb *core.Testbed) (rendered, map[string][]byte) {
		t.Helper()
		r := c.render(t, tb.WithDiagnostics())
		return r, encodeDiags(t, tb)
	}
	aref, docs := armed(t, core.NewTestbed(c.seed).SetParallelism(1))
	if !bytes.Contains(aref.json, []byte("drops_queue")) {
		t.Fatal("armed JSON lacks drops_queue")
	}
	if len(docs) != c.n {
		t.Fatalf("%d diagnostics artifacts, want %d", len(docs), c.n)
	}
	//vcalint:ignore maprange order-independent check; each artifact is decoded on its own
	for key, data := range docs {
		d, err := diag.Decode(data)
		if err != nil {
			t.Fatalf("decode %s: %v", key, err)
		}
		if d.Version != 1 || len(d.Pipes) == 0 {
			t.Errorf("artifact %s: version %d with %d pipes", key, d.Version, len(d.Pipes))
		}
	}

	t.Run("diag-parallel=8", func(t *testing.T) {
		r, got := armed(t, core.NewTestbed(c.seed).SetParallelism(8))
		sameRender(t, aref, r)
		sameDiags(t, docs, got)
	})
	// A bare run warms the directory first: armed cells key apart from
	// bare ones, so the armed cold run must miss every cell.
	t.Run("diag-store", func(t *testing.T) {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sameRender(t, ref, c.render(t, core.NewTestbed(c.seed).WithStore(st)))
		coldThenWarm(t, dir, c.seed, c.n, func(t *testing.T, tb *core.Testbed) {
			r, got := armed(t, tb)
			sameRender(t, aref, r)
			sameDiags(t, docs, got)
		})
	})
	// An armed coordinator asks plain workers to arm per unit.
	t.Run("diag-fleet", func(t *testing.T) {
		pool, _ := startFleet(t, serve.Config{}, serve.Config{})
		r, got := armed(t, core.NewTestbed(c.seed).WithDispatcher(pool))
		sameRender(t, aref, r)
		sameDiags(t, docs, got)
		if ps := pool.Stats(); ps.Remote != uint64(c.n) {
			t.Errorf("pool served %d units remotely, want %d", ps.Remote, c.n)
		}
	})
	t.Run("diag-daemon", func(t *testing.T) {
		ts := httptest.NewServer(serve.New(serve.Config{Scale: core.TinyScale, Diagnostics: true}).Handler())
		defer ts.Close()
		same(t, aref.json, c.daemonResult(t, ts.URL, len(aref.res.Cells)))
		got := make(map[string][]byte, len(docs))
		//vcalint:ignore maprange order-independent fetch into a map keyed by the same keys
		for key := range docs {
			got[key] = []byte(httpGet(t, fmt.Sprintf("%s/cells/%s/diag?seed=%d", ts.URL, key, c.seed)))
		}
		sameDiags(t, docs, got)
	})
}

// daemonResult submits the spec to the daemon at url, polls until the
// job finishes with the given number of cells and returns its result
// document.
func (c *contractCase) daemonResult(t *testing.T, url string, cells int) []byte {
	t.Helper()
	body := fmt.Sprintf(`{"spec": %s, "seed": %d}`, c.raw, c.seed)
	resp, err := http.Post(url+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID, Status, Error string
		Cells             int
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Minute); job.Status != "done"; {
		if job.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("job %s: status %q %s", job.ID, job.Status, job.Error)
		}
		time.Sleep(10 * time.Millisecond)
		if err := json.Unmarshal([]byte(httpGet(t, url+"/campaigns/"+job.ID)), &job); err != nil {
			t.Fatal(err)
		}
	}
	if job.Cells != cells {
		t.Errorf("job reports %d cells, want %d", job.Cells, cells)
	}
	return []byte(httpGet(t, url+"/campaigns/"+job.ID+"/result"))
}

// checkArtifact renders one experiment by ID at seed 42: serially as
// the reference, at three workers, and cold then warm through a store.
func checkArtifact(t *testing.T, sc core.Scale, id string, units int) {
	e, ok := core.Lookup(id)
	if !ok {
		t.Fatalf("no experiment %s", id)
	}
	text := func(t *testing.T, tb *core.Testbed) []byte {
		t.Helper()
		var b bytes.Buffer
		e.Run(tb, sc, &b)
		if err := tb.StoreErr(); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	ref := text(t, core.NewTestbed(42).SetParallelism(1))
	if len(ref) < 100 {
		t.Fatalf("reference output is %d bytes:\n%s", len(ref), ref)
	}
	t.Run("parallel=3", func(t *testing.T) {
		same(t, ref, text(t, core.NewTestbed(42).SetParallelism(3)))
	})
	t.Run("store", func(t *testing.T) {
		coldThenWarm(t, t.TempDir(), 42, units, func(t *testing.T, tb *core.Testbed) {
			same(t, ref, text(t, tb))
		})
	})
}

// coldThenWarm runs check twice, each time on a fresh testbed over a
// fresh handle to the store in dir, as a new process would: the cold
// run must compute and store all n units, the warm run must read them
// all back and compute none.
func coldThenWarm(t *testing.T, dir string, seed int64, n int, check func(t *testing.T, tb *core.Testbed)) {
	for _, temp := range []struct {
		name               string
		workers            int
		hits, misses, puts uint64
	}{{"cold", 4, 0, uint64(n), uint64(n)}, {"warm", 2, uint64(n), 0, 0}} {
		t.Run(temp.name, func(t *testing.T) {
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			check(t, core.NewTestbed(seed).SetParallelism(temp.workers).WithStore(st))
			s := st.Stats()
			if s.Hits() != temp.hits || s.Misses != temp.misses || s.Puts != temp.puts {
				t.Errorf("%d hits, %d misses, %d puts; want %d, %d, %d",
					s.Hits(), s.Misses, s.Puts, temp.hits, temp.misses, temp.puts)
			}
		})
	}
}

func sameRender(t *testing.T, want, got rendered) {
	t.Helper()
	same(t, want.json, got.json)
	same(t, want.table, got.table)
}

// same reports the first line where got departs from want and, in
// campaign JSON, the key of the cell (or replica) that line belongs to.
func same(t *testing.T, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	i := 0
	for i < len(wl) && i < len(gl) && wl[i] == gl[i] {
		i++
	}
	where := ""
	for j := min(i, len(wl)-1); j >= 0; j-- {
		if k, ok := strings.CutPrefix(strings.TrimSpace(wl[j]), `"key": `); ok {
			where = ", in cell " + strings.TrimSuffix(k, ",")
			break
		}
	}
	t.Errorf("%s: output differs from the reference at line %d%s:\nwant: %s\n got: %s",
		t.Name(), i+1, where, lineAt(wl, i), lineAt(gl, i))
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end of output)"
}

func encodeDiags(t *testing.T, tb *core.Testbed) map[string][]byte {
	t.Helper()
	docs := make(map[string][]byte)
	for _, d := range tb.DiagResults() {
		data, err := diag.Encode(d)
		if err != nil {
			t.Fatalf("encode %s: %v", d.Key, err)
		}
		docs[d.Key] = data
	}
	return docs
}

func sameDiags(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d diagnostics artifacts, want %d", t.Name(), len(got), len(want))
	}
	var differ []string
	//vcalint:ignore maprange the keys are sorted before they are reported
	for k := range want {
		if !bytes.Equal(want[k], got[k]) {
			differ = append(differ, k)
		}
	}
	if len(differ) > 0 {
		sort.Strings(differ)
		t.Errorf("%s: %d diagnostics artifacts differ from the reference, first that of cell %s",
			t.Name(), len(differ), differ[0])
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return string(b)
}

// metricValue reads an unlabelled integer series from a Prometheus
// text exposition.
func metricValue(t *testing.T, text, name string) int {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("no %s series in:\n%s", name, text)
	return 0
}
