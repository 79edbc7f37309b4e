package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the harness reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// harness runs from the root or from bench/.
func loadSpec() (*spec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

// runSet is one directory of saved untraced runs: values by workload
// and metric, plus how many runs reported incorrect output.
type runSet struct {
	vals      map[string]map[string][]float64
	incorrect int
}

// readSet loads every saved run (a bench invocation's standard output,
// one file per run) in dir. Traced runs are skipped: their metrics have
// no bounds.
func readSet(dir string) (*runSet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	set := &runSet{vals: map[string]map[string][]float64{}}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		workload, traced, res, err := readRun(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if traced {
			continue
		}
		if !res.Correct || res.Failed > 0 {
			set.incorrect++
		}
		if set.vals[workload] == nil {
			set.vals[workload] = map[string][]float64{}
		}
		for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
			set.vals[workload][name] = append(set.vals[workload][name], res.Metrics[name].Value)
		}
	}
	return set, nil
}

// readRun parses one saved run: the header line's workload and trace
// fields, and the final line's result document.
func readRun(path string) (workload string, traced bool, res result, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", false, res, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if rest, ok := strings.CutPrefix(line, "bench: "); ok {
			for _, kv := range strings.Fields(rest) {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "workload":
					workload = v
				case "trace":
					traced = v == "1"
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", false, res, err
	}
	if workload == "" {
		return "", false, res, fmt.Errorf("no bench header line")
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return "", false, res, fmt.Errorf("last line: %w", err)
	}
	return workload, traced, res, nil
}

// compareMain prints, for every workload and end-to-end metric, each
// set's median and quartiles and B's change relative to A, and returns
// 1 if any resolved metric got worse by more than its bound, a metric
// is missing, or a run reported incorrect output. A metric whose own
// spread in either set exceeds its bound is unresolved: the sets cannot
// tell a change of that size from noise.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare SET_A SET_B")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	var sets [2]*runSet
	for i, dir := range args {
		if sets[i], err = readSet(dir); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}
	code := 0
	for i, s := range sets {
		if s.incorrect > 0 {
			fmt.Fprintf(out, "%s: %d runs reported incorrect output\n", args[i], s.incorrect)
			code = 1
		}
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tn\tA median [q1, q3]\tB median [q1, q3]\tB vs A\tbound\tverdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			a, b := sets[0].vals[w.Name][m.Name], sets[1].vals[w.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%d/%d\t\t\t\t\tmissing\n", w.Name, m.Name, len(a), len(b))
				code = 1
				continue
			}
			qa, qb := quartiles(a), quartiles(b)
			rel := (qb[1] - qa[1]) / qa[1]
			v := verdict(a, b, rel, m.Bound, m.Better == "higher")
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%s\t%s\t%+.2f%%\t%.0f%%\t%s\n", w.Name, m.Name, len(a), len(b),
				fmtQ(qa), fmtQ(qb), 100*rel, 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return 2
	}
	return code
}

// verdict classifies B against A for one metric with the given bound.
func verdict(a, b []float64, rel, bound float64, higherBetter bool) string {
	worse := rel
	if higherBetter {
		worse = -rel
	}
	if spread(a) > bound || spread(b) > bound {
		if allBetter(a, b, higherBetter) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case -worse > bound:
		return "better"
	}
	return "ok"
}

// allBetter reports whether every run of b reads better than every run
// of a — the one case where noise wider than the bound still decides.
func allBetter(a, b []float64, higherBetter bool) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if higherBetter {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
