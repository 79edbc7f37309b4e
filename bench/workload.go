package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/vcabench/vcabench"
	"github.com/vcabench/vcabench/internal/geo"
)

// workload is one set of paper artifacts a pass regenerates.
type workload struct {
	name      string
	artifacts []string // experiment IDs, run in order; the pass digest covers all
	warm      bool     // passes read a store filled during set-up
	ledger    ledgerSpec
}

// fig12Ledger is the ledger of the uncapped US sweep. warm-rerun reuses
// it: its own passes compute nothing, so its ledger describes the layers
// that built the cells it reads.
var fig12Ledger = ledgerSpec{
	feeds:     []string{"low-motion", "high-motion"},
	capsBps:   []int64{0},
	receivers: []geo.Region{geo.USWest},
}

// workloads is the benchmark's workload set; BENCHMARK.json records why
// each was chosen.
var workloads = []workload{
	{name: "qoe-sweep", artifacts: []string{"fig12"}, ledger: fig12Ledger},
	{name: "lag-sweep", artifacts: []string{"fig4", "fig5", "fig6", "fig7"}, ledger: ledgerSpec{
		feeds:     []string{"flash"},
		capsBps:   []int64{0},
		receivers: vcabench.USLagFleet(vcabench.USEast),
	}},
	{name: "cap-sweep", artifacts: []string{"fig17", "fig13"}, ledger: ledgerSpec{
		feeds:     []string{"low-motion", "high-motion"},
		capsBps:   []int64{250_000, 500_000, 1_000_000},
		receivers: []geo.Region{geo.USEast2},
	}},
	{name: "warm-rerun", artifacts: []string{"fig12"}, warm: true, ledger: fig12Ledger},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupRuns is how many times an untraced run sets up; setup_s is the
// median.
const setupRuns = 3

type digest = [sha256.Size]byte

// render regenerates w's artifacts once at the given worker count and
// returns the sha256 of everything they rendered. An ErrStore from the
// engine is returned like any other error: the bench counts it as a
// failed pass.
func render(w workload, seed int64, workers int, st vcabench.CellStore, tel *vcabench.Telemetry) (digest, error) {
	h := sha256.New()
	for _, id := range w.artifacts {
		opts := vcabench.RunOpts{Workers: workers, Store: st, Telemetry: tel}
		if err := vcabench.RunWithOpts(id, seed, vcabench.TinyScale, opts, h); err != nil {
			return digest{}, fmt.Errorf("%s: %w", id, err)
		}
	}
	var d digest
	h.Sum(d[:0])
	return d, nil
}

// coldPass renders w into a fresh store directory under work, removed
// afterwards, with the probe's decorator and tracer when traced.
func coldPass(w workload, seed int64, workers int, work string, p *engineProbe) (digest, error) {
	dir, err := os.MkdirTemp(work, "store-")
	if err != nil {
		return digest{}, err
	}
	defer os.RemoveAll(dir)
	return storePass(w, seed, workers, dir, p)
}

// storePass renders w through a fresh Store handle on dir. A fresh
// handle has an empty memory front, so every hit is a disk read.
func storePass(w workload, seed int64, workers int, dir string, p *engineProbe) (digest, error) {
	st, err := vcabench.OpenStore(dir)
	if err != nil {
		return digest{}, err
	}
	return render(w, seed, workers, p.store(st), p.telemetry())
}

// errMismatch marks a pass whose rendered bytes differ from the serial
// reference.
var errMismatch = errors.New("rendered output differs from the serial reference")

// timedPasses runs pass until budget of wall time has elapsed, at
// least once, and returns each pass's wall seconds and how many passes
// failed. It calls after (when non-nil) outside each pass's timed
// window. A pass fails when it or after returns an error — ErrStore
// included — or it renders bytes that differ from ref; the first few
// failures are reported on standard error.
func timedPasses(pass func() (digest, error), after func() error, ref digest, budget time.Duration) (durs []float64, failed int) {
	start := time.Now()
	for len(durs) == 0 || time.Since(start) < budget {
		t0 := time.Now()
		d, err := pass()
		durs = append(durs, time.Since(t0).Seconds())
		if err == nil && after != nil {
			err = after()
		}
		if err == nil && d != ref {
			err = errMismatch
		}
		if err != nil {
			if failed++; failed <= 3 {
				fmt.Fprintf(os.Stderr, "bench: pass %d failed: %v\n", len(durs), err)
			}
		}
	}
	return durs, failed
}

// run measures one workload: set-up, then passes for seconds, then (when
// traced) the CPU profile's layer shares and the stage ledger.
func run(w workload, seed int64, seconds float64, traced bool) (*result, runInfo, error) {
	info := runInfo{workers: runtime.GOMAXPROCS(0), traced: traced}
	work, err := os.MkdirTemp("", "vcabench-bench-")
	if err != nil {
		return nil, info, err
	}
	defer os.RemoveAll(work)

	var probe, fill *engineProbe
	if traced {
		probe = &engineProbe{}
	}
	var (
		ref        digest
		storeDir   string
		setupTimes []float64
	)
	switch {
	case !w.warm:
		runs := setupRuns
		if traced {
			runs = 1 // the traced run reports no setup_s
		}
		ref, setupTimes, err = repeatSetup(runs, func() (digest, error) { return coldPass(w, seed, 1, work, nil) })
	case traced:
		// Only the traced run fills in-process, with tracing armed, so
		// its local-run and store-write figures describe the fill; the
		// untraced run keeps the fill out of its peak RSS.
		fill = &engineProbe{}
		storeDir = filepath.Join(work, "warm")
		if ref, err = storePass(w, seed, 1, storeDir, fill); err == nil {
			err = fill.harvest()
		}
	default:
		storeDir, ref, setupTimes, err = warmSetup(w, seed, work)
	}
	if err != nil {
		return nil, info, fmt.Errorf("set-up: %w", err)
	}
	info.digest = hex.EncodeToString(ref[:])

	pass := func() (digest, error) { return coldPass(w, seed, info.workers, work, probe) }
	if w.warm {
		pass = func() (digest, error) { return storePass(w, seed, info.workers, storeDir, probe) }
	}

	var harvest, stopProfile func() error
	profPath := filepath.Join(work, "cpu.pprof")
	if traced {
		harvest = probe.harvest
		if stopProfile, err = startCPUProfile(profPath); err != nil {
			return nil, info, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	durs, failed := timedPasses(pass, harvest, ref, time.Duration(seconds*float64(time.Second)))
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	if traced {
		if err := stopProfile(); err != nil {
			return nil, info, err
		}
	}
	info.passes = len(durs)
	n := float64(info.passes)

	// Every pass does byte-identical work, so pass-to-pass variation is
	// the host's; the fastest pass is the least disturbed measurement of
	// the program's cost (see README.md, "Why the fastest pass").
	vals := map[string]float64{}
	decls := endToEnd
	if !traced {
		vals["pass_s_min"] = slices.Min(durs)
		vals["alloc_mb_per_pass"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / n
		vals["peak_rss_mb"] = peakRSSMB()
		vals["setup_s"] = median(setupTimes)
	} else {
		decls = perLayer
		vals["traced.pass_s_min"] = slices.Min(durs)
		vals["traced.cpu_s_per_pass"] = (cpu1 - cpu0) / n
		shares, err := cpuShares(profPath)
		if err != nil {
			return nil, info, err
		}
		wall := 0.0
		for _, d := range durs {
			wall += d
		}
		ledger, err := runLedger(w.ledger, seed)
		if err != nil {
			return nil, info, err
		}
		engine := probe.metrics(info.passes, wall, info.workers)
		if fill != nil {
			// Warm passes compute and write nothing; these figures
			// describe the set-up fill instead of reading zero.
			f := fill.metrics(1, 1, 1)
			for _, k := range []string{"core.local_run_ms_p50", "core.local_run_ms_p90", "store.put_us_p50"} {
				engine[k] = f[k]
			}
		}
		for _, part := range []map[string]float64{shares, engine, ledger} {
			for k, v := range part {
				vals[k] = v
			}
		}
	}
	metrics, err := withUnits(vals, decls)
	if err != nil {
		return nil, info, err
	}
	return &result{Correct: failed == 0, Attempted: info.passes, Failed: failed, Metrics: metrics}, info, nil
}

// withUnits pairs every declared metric with its value, and fails if a
// value is missing or undeclared, so the binary can never print a name
// BENCHMARK.json does not know.
func withUnits(vals map[string]float64, decls []metricDecl) (map[string]metric, error) {
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(out) != len(vals) {
		return nil, fmt.Errorf("measured %d metrics, declared %d", len(vals), len(out))
	}
	return out, nil
}

// repeatSetup runs one set-up runs times, timing each, and checks that
// every repetition yields the same serial reference digest.
func repeatSetup(runs int, once func() (digest, error)) (ref digest, times []float64, err error) {
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		d, err := once()
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return ref, nil, err
		}
		if i > 0 && d != ref {
			return ref, nil, errors.New("serial reference passes disagree")
		}
		ref = d
	}
	return ref, times, nil
}

// warmSetup fills a store setupRuns times, each time in a child process
// running the serial reference pass, and keeps the last store. The
// children's digest is the cold reference every warm pass must match.
func warmSetup(w workload, seed int64, work string) (dir string, ref digest, times []float64, err error) {
	ref, times, err = repeatSetup(setupRuns, func() (digest, error) {
		os.RemoveAll(dir) // the previous repetition's store; "" is a no-op
		var err error
		if dir, err = os.MkdirTemp(work, "warm-"); err != nil {
			return digest{}, err
		}
		return populateChild(w, seed, dir)
	})
	return dir, ref, times, err
}

// populateChild re-executes the binary to fill dir with one serial
// reference pass of w and returns the digest the child printed.
func populateChild(w workload, seed int64, dir string) (digest, error) {
	var d digest
	self, err := os.Executable()
	if err != nil {
		return d, err
	}
	out, err := exec.Command(self, populateCmd, "--workload", w.name,
		"--seed", fmt.Sprint(seed), "--dir", dir).Output()
	if err != nil {
		return d, fmt.Errorf("populate child: %w", err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(out)))
	if err != nil || len(b) != len(d) {
		return d, fmt.Errorf("populate child printed %q", out)
	}
	copy(d[:], b)
	return d, nil
}

// populateCmd is the hidden subcommand warmSetup re-executes the binary
// with: one serial reference pass into --dir, digest on stdout.
const populateCmd = "populate"

func populateMain(args []string) int {
	fs := flag.NewFlagSet(populateCmd, flag.ContinueOnError)
	name := fs.String("workload", "", "workload whose artifacts to render")
	seed := fs.Int64("seed", 42, "testbed seed")
	dir := fs.String("dir", "", "store directory to fill")
	if err := fs.Parse(args); err != nil || *dir == "" {
		return 2
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	d, err := storePass(w, *seed, 1, *dir, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: populate: %v\n", err)
		return 1
	}
	fmt.Println(hex.EncodeToString(d[:]))
	return 0
}

// cpuSeconds is the process's user+system CPU time so far. Its
// resolution is a scheduler tick per thread, so it is read only around
// whole runs of passes, never around one pass.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
