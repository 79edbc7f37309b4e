// Command vcabench runs the paper's experiments by ID, or a
// declarative campaign grid from a JSON spec.
//
// Usage:
//
//	vcabench -list
//	vcabench -run fig4 [-scale quick|paper|tiny] [-seed 42] [-parallel N] [-cache DIR]
//	vcabench -run all
//	vcabench -campaign spec.json [-json results.json] [-cache DIR]
//	vcabench -campaign spec.json -workers http://a:8547,http://b:8547
//
// One testbed serves the whole invocation, configured by -seed,
// -parallel, -cache, -workers, -diag-out and the observability flags
// alike for -run and -campaign. IDs in one -run list therefore share
// units: fig14 and fig15 read the US sweep fig12 computed, and Figs
// 2-11 share the lag campaigns, from the testbed's cell store. The
// bytes are those of each ID run alone.
//
// -parallel bounds the campaign worker pool (0 = one worker per CPU,
// 1 = serial; negative counts are rejected). Output is byte-identical
// at any worker count.
//
// -workers shards campaign cells across a fleet of vcabenchd daemons
// (comma-separated base URLs): each cell's preferred worker derives
// from its unit key, failures retry on other workers with backoff, and
// cells the fleet cannot serve compute locally — so the output
// (including -json) is byte-identical to a single-process run for any
// fleet size or failure pattern. A summary line ("vcabench: cluster:
// ...") goes to stderr. Works with -run and -campaign; lag figures
// have no campaign cells and always run locally.
//
// -campaign runs the grid declared in the given JSON spec (see the
// README for the format — including the time-varying "traces" axis,
// whose cells carry a rate-over-time series in the JSON results) and
// renders a per-cell table; -json
// additionally writes the structured results to a file. With
// "-json -" stdout carries only the JSON document (no table), so it
// pipes cleanly into jq and friends. -json without -campaign is a
// usage error.
//
// -repeats N overrides the spec's "repeats" axis: every cell runs N
// times with independent key-derived seeds and the table/JSON report
// aggregated statistics (mean ±95% CI per metric, plus a per-replica
// "replicas" block in the JSON). -repeats 0 (the default) keeps the
// spec's own value; -repeats requires -campaign.
//
// -cache persists campaign-unit results in the given directory: a
// rerun of the same experiment or spec (same seed and scale, any
// -parallel value, any process) serves every cell from the store and
// produces byte-identical output. The cache directory is shared safely
// between concurrent runs and with the vcabenchd daemon; a summary
// line ("vcabench: cache: N hits, M misses, K cells stored") goes to
// stderr after each cached run.
//
// Observability (none of it changes rendered output, only records how
// it was produced — see the README's Observability section):
//
//	-trace-out spans.jsonl   write execution spans (campaign → cell →
//	                         replica → unit → store/dispatch/
//	                         local-run) as JSON Lines, one span per
//	                         line, plus a per-tier summary on stderr
//	-metrics-out FILE        write the final metrics registry in
//	                         Prometheus text format ("-" = stderr)
//	-cpuprofile FILE         write a pprof CPU profile of the run
//	-memprofile FILE         write a pprof heap profile at exit
//
// Simulation diagnostics (sim-time, unlike the walltime observability
// above — see the README's Simulation diagnostics section):
//
//	-diag-out DIR            arm the flight recorder and write one
//	                         versioned JSON diagnostics artifact per
//	                         campaign cell into DIR (the cell key with
//	                         "/" replaced by "__", plus ".json"). The
//	                         artifacts are byte-identical at any
//	                         -parallel value, cache temperature or
//	                         -workers fleet. Diagnostics-armed runs
//	                         cache separately from bare runs under the
//	                         same -cache directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"github.com/vcabench/vcabench"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		run      = flag.String("run", "", "comma-separated experiment IDs, or \"all\"")
		campaign = flag.String("campaign", "", "path to a JSON campaign spec to run instead of -run")
		jsonOut  = flag.String("json", "", "with -campaign: write JSON results to this file (\"-\" = stdout)")
		scale    = flag.String("scale", "quick", "experiment scale: tiny, quick or paper")
		seed     = flag.Int64("seed", 42, "simulation seed")
		parallel = flag.Int("parallel", 0, "campaign worker count (0 = GOMAXPROCS, 1 = serial)")
		cacheDir = flag.String("cache", "", "persist campaign-unit results in this directory")
		workers  = flag.String("workers", "", "comma-separated vcabenchd base URLs to shard campaign cells across")
		repeats  = flag.Int("repeats", 0, "with -campaign: run every cell this many times and aggregate (0 = spec's value)")
		traceOut = flag.String("trace-out", "", "write execution spans as JSON Lines to this file, summary to stderr")
		metrics  = flag.String("metrics-out", "", "write final metrics in Prometheus text format to this file (\"-\" = stderr)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		diagOut  = flag.String("diag-out", "", "write one sim-time diagnostics JSON artifact per campaign cell into this directory")
	)
	flag.Parse()

	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "vcabench: -parallel %d: worker count must be >= 1 (or 0 for the default)\n", *parallel)
		flag.Usage()
		os.Exit(2)
	}
	if *repeats < 0 {
		fmt.Fprintf(os.Stderr, "vcabench: -repeats %d: replication factor must be >= 1 (or 0 for the spec's value)\n", *repeats)
		flag.Usage()
		os.Exit(2)
	}
	// Flag-consistency errors beat silent ignoring, so they are checked
	// before -list short-circuits.
	if *jsonOut != "" && *campaign == "" {
		fmt.Fprintln(os.Stderr, "vcabench: -json requires -campaign")
		flag.Usage()
		os.Exit(2)
	}
	if *repeats != 0 && *campaign == "" {
		fmt.Fprintln(os.Stderr, "vcabench: -repeats requires -campaign")
		flag.Usage()
		os.Exit(2)
	}
	if *cacheDir != "" && *run == "" && *campaign == "" {
		fmt.Fprintln(os.Stderr, "vcabench: -cache requires -run or -campaign")
		flag.Usage()
		os.Exit(2)
	}
	if *workers != "" && *run == "" && *campaign == "" {
		fmt.Fprintln(os.Stderr, "vcabench: -workers requires -run or -campaign")
		flag.Usage()
		os.Exit(2)
	}
	for _, f := range []struct{ name, val string }{
		{"-trace-out", *traceOut}, {"-metrics-out", *metrics},
		{"-cpuprofile", *cpuProf}, {"-memprofile", *memProf},
		{"-diag-out", *diagOut},
	} {
		if f.val != "" && *run == "" && *campaign == "" {
			fmt.Fprintf(os.Stderr, "vcabench: %s requires -run or -campaign\n", f.name)
			flag.Usage()
			os.Exit(2)
		}
	}

	if *list {
		for _, e := range vcabench.List() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return
	}
	if (*run == "") == (*campaign == "") {
		fmt.Fprintln(os.Stderr, "vcabench: exactly one of -run or -campaign is required")
		flag.Usage()
		os.Exit(2)
	}

	sc, ok := vcabench.ScaleByName(*scale)
	if !ok {
		fmt.Fprintf(os.Stderr, "vcabench: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	o := startObs(*traceOut, *metrics, *cpuProf, *memProf)
	defer o.finish()

	// One testbed for the whole invocation (see the package comment).
	tb := vcabench.NewTestbedParallel(*seed, *parallel)
	if o.tel != nil {
		tb.WithTelemetry(o.tel)
	}
	var st *vcabench.Store
	if *cacheDir != "" {
		var err error
		// With telemetry on, the store reports into the same registry
		// the engine does, so one -metrics-out file carries both.
		if o.tel != nil {
			st, err = vcabench.OpenStoreOptions(*cacheDir, vcabench.StoreOptions{Telemetry: o.tel})
		} else {
			st, err = vcabench.OpenStore(*cacheDir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "vcabench:", err)
			o.finish()
			os.Exit(1)
		}
		tb.WithStore(st)
		defer reportCache(st)
	}

	pool := openPool(*workers, o.tel)
	if pool != nil {
		tb.WithDispatcher(pool)
		defer reportCluster(pool)
	}

	if *diagOut != "" {
		// Creating the directory up front makes an empty dir (rather
		// than nothing at all) the signal for "run produced no cells".
		if err := os.MkdirAll(*diagOut, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "vcabench: -diag-out:", err)
			o.finish()
			os.Exit(1)
		}
		tb.WithDiagnostics()
	}

	var err error
	if *campaign != "" {
		err = runCampaign(tb, *campaign, *jsonOut, sc, *repeats)
	} else {
		err = runIDs(tb, *run, sc)
	}
	// Artifacts of the experiments that rendered land even when a later
	// ID is unknown; a requested one that fails to land must not exit 0.
	for _, d := range tb.DiagResults() {
		if werr := writeDiag(*diagOut, d); werr != nil && err == nil {
			err = fmt.Errorf("vcabench: -diag-out: %w", werr)
		}
	}
	if serr := tb.StoreErr(); serr != nil {
		// The output rendered fully; only caching failed.
		fmt.Fprintln(os.Stderr, "vcabench: warning: persisting results failed:", serr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		reportCache(st)
		reportCluster(pool)
		o.finish()
		os.Exit(1)
	}
}

// runIDs renders the experiments of a comma-separated ID list ("all"
// for every one) on tb, in order.
func runIDs(tb *vcabench.Testbed, list string, sc vcabench.Scale) error {
	exps := vcabench.List()
	ids := strings.Split(list, ",")
	if list == "all" {
		ids = ids[:0]
		for _, e := range exps {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		fmt.Printf("=== %s (scale=%s, seed=%d) ===\n", id, sc.Name, tb.Seed())
		i := slices.IndexFunc(exps, func(e vcabench.Experiment) bool { return e.ID == id })
		if i < 0 {
			return fmt.Errorf("vcabench: unknown experiment %q (use List)", id)
		}
		exps[i].Run(tb, sc, os.Stdout)
		fmt.Println()
	}
	return nil
}

// obsSession owns the run's observability outputs. finish flushes them
// exactly once; every exit path — normal return or os.Exit, which
// bypasses defers — calls it explicitly.
type obsSession struct {
	tel      *vcabench.Telemetry // nil unless -trace-out or -metrics-out
	traceOut string
	metrics  string
	cpuFile  *os.File
	memProf  string
	done     bool
}

// startObs arms the requested observability outputs. Telemetry and
// profiling failures are fatal up front: asking for a trace and
// silently losing it is worse than not starting.
func startObs(traceOut, metrics, cpuProf, memProf string) *obsSession {
	o := &obsSession{traceOut: traceOut, metrics: metrics, memProf: memProf}
	if traceOut != "" || metrics != "" {
		o.tel = vcabench.NewTelemetry()
		if traceOut != "" {
			o.tel.Tracer = vcabench.NewTracer()
		}
	}
	if cpuProf != "" {
		f, err := os.Create(cpuProf)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "vcabench: -cpuprofile:", err)
			os.Exit(1)
		}
		o.cpuFile = f
	}
	return o
}

// finish writes the trace, metrics and profile outputs. Output errors
// warn rather than fail: the run's results are already on stdout.
func (o *obsSession) finish() {
	if o == nil || o.done {
		return
	}
	o.done = true
	warn := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "vcabench: warning: %s: %v\n", what, err)
		}
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err == nil {
			err = o.tel.Tracer.WriteJSONL(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		warn("-trace-out", err)
		o.tel.Tracer.Summary(os.Stderr)
	}
	if o.metrics != "" {
		if o.metrics == "-" {
			warn("-metrics-out", o.tel.Metrics.WriteText(os.Stderr))
		} else {
			f, err := os.Create(o.metrics)
			if err == nil {
				err = o.tel.Metrics.WriteText(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			warn("-metrics-out", err)
		}
	}
	if o.cpuFile != nil {
		pprof.StopCPUProfile()
		warn("-cpuprofile", o.cpuFile.Close())
	}
	if o.memProf != "" {
		f, err := os.Create(o.memProf)
		if err == nil {
			// An up-to-date heap picture needs a collection first.
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		warn("-memprofile", err)
	}
}

// openPool builds the worker fleet named by -workers, reporting
// unreachable workers up front (they may still rejoin mid-campaign;
// cells nobody serves run locally).
func openPool(spec string, tel *vcabench.Telemetry) *vcabench.Pool {
	if spec == "" {
		return nil
	}
	var urls []string
	for _, u := range strings.Split(spec, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	pool, err := vcabench.NewPoolOptions(urls, vcabench.PoolOptions{Telemetry: tel})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vcabench:", err)
		os.Exit(2)
	}
	if healthy := pool.Healthy(); len(healthy) < len(urls) {
		fmt.Fprintf(os.Stderr, "vcabench: warning: %d of %d workers reachable; unserved cells run locally\n",
			len(healthy), len(urls))
	}
	return pool
}

// reportCluster prints where campaign cells actually ran; the CI smoke
// test parses this line, so keep its shape stable.
func reportCluster(pool *vcabench.Pool) {
	if pool == nil {
		return
	}
	s := pool.Stats()
	fmt.Fprintf(os.Stderr, "vcabench: cluster: %d cells remote, %d failed attempts, %d local fallbacks\n",
		s.Remote, s.Errors, s.Fallbacks)
	for _, w := range s.Workers {
		fmt.Fprintf(os.Stderr, "vcabench: cluster: %s: %d done, %d errors\n", w.URL, w.Done, w.Errs)
	}
}

// reportCache prints the store traffic summary; the CI smoke test
// parses this line, so keep its shape stable.
func reportCache(st *vcabench.Store) {
	if st == nil {
		return
	}
	s := st.Stats()
	fmt.Fprintf(os.Stderr, "vcabench: cache: %d hits, %d misses, %d cells stored\n",
		s.Hits, s.Misses, s.Puts)
}

// writeDiag lands one flight-recorder document in dir, named after its
// cell key with path separators flattened so every key maps to exactly
// one file directly under dir.
func writeDiag(dir string, d *vcabench.CellDiag) error {
	data, err := vcabench.EncodeDiag(d)
	if err != nil {
		return err
	}
	name := strings.ReplaceAll(d.Key, "/", "__") + ".json"
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// runCampaign loads a spec file, runs the grid on tb and writes the
// text table to stdout plus, optionally, JSON results to jsonPath.
func runCampaign(tb *vcabench.Testbed, specPath, jsonPath string, sc vcabench.Scale, repeats int) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return fmt.Errorf("vcabench: %w", err)
	}
	spec, err := vcabench.ParseCampaign(data)
	if err != nil {
		return fmt.Errorf("vcabench: %s: %w", specPath, err)
	}
	if repeats != 0 {
		spec.Repeats = repeats
		// The override must obey the same bounds a spec-file value would.
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("vcabench: -repeats %d: %w", repeats, err)
		}
	}
	res, err := vcabench.RunCampaign(tb, spec, sc)
	if err != nil {
		return fmt.Errorf("vcabench: %w", err)
	}
	// With -json -, stdout is the machine-readable document; keep it
	// parseable by skipping the human table.
	if jsonPath == "-" {
		return vcabench.WriteJSON(os.Stdout, res)
	}
	res.RenderTable().Render(os.Stdout)
	if jsonPath == "" {
		return nil
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return fmt.Errorf("vcabench: %w", err)
	}
	werr := vcabench.WriteJSON(f, res)
	// Close errors are flush errors: a truncated results file must not
	// exit 0.
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
