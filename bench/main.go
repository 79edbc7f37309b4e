// Command bench is the repository's benchmark: it regenerates paper
// artifacts through the public vcabench API in a closed loop (one pass
// at a time, each pass sharded over GOMAXPROCS workers), checks every
// pass byte-for-byte against a serial reference, and prints end-to-end
// host-time metrics or, with -trace 1, a per-layer ledger.
//
//	bash bench/run.sh --workload qoe-sweep --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                       # every workload, one child each
//	bash bench/run.sh compare SET_A/ SET_B/ # medians, quartiles, verdicts
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case populateCmd:
			os.Exit(populateMain(os.Args[2:]))
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own child process")
	seed := fs.Int64("seed", 42, "testbed seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "wall seconds of timed passes")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] | compare SET_A SET_B")
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, info, err := run(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, w.name, *seed, info, res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// runAll runs every workload in its own child process, so each one's
// peak RSS is its own, and passes their output through. It returns the
// process exit code.
func runAll(seed int64, seconds float64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the document the last line of standard output carries.
// encoding/json writes map keys sorted, so the line is deterministic
// in layout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is what a run reports beside its metrics: facts a reader
// needs to read the numbers, none of them a metric.
type runInfo struct {
	passes  int
	workers int
	digest  string // sha256 of one pass's rendered output
	traced  bool
}

// printResult writes the header line that compare keys runs by, then
// the result document as the final line.
func printResult(w io.Writer, workload string, seed int64, info runInfo, res *result) error {
	trace := 0
	if info.traced {
		trace = 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "bench: workload=%s seed=%d trace=%d passes=%d workers=%d nproc=%d go=%s digest=sha256:%s\n%s\n",
		workload, seed, trace, info.passes, info.workers, runtime.NumCPU(), runtime.Version(), info.digest, line)
	return err
}
