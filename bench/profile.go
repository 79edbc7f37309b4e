package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// repoPrefix marks the frames a CPU sample can be charged to.
const repoPrefix = "github.com/vcabench/vcabench/internal/"

// shareLayers are the internal packages with a cpu_share metric of
// their own. Samples whose innermost repo frame lies in any other
// internal package go to "other"; samples with no repo frame at all
// (GC, scheduler, the harness itself) go to "runtime". Together they
// partition the profile, so each workload's shares sum to 1.
var shareLayers = []string{
	"media", "codec", "rtp", "simnet", "platform", "client", "capture",
	"geo", "probe", "trace", "qoe", "core", "store", "stats", "report", "obs",
}

// allocFrame marks samples spent allocating. Its share overlaps the
// layer shares, so it is reported beside them, not in their sum.
const allocFrame = "runtime.mallocgc"

// startCPUProfile begins profiling into path; the returned function
// stops the profile and closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// cpuShares runs `go tool pprof -traces` on a CPU profile and returns
// each layer's share of its samples (see attribute).
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return attribute(string(out))
}

// attribute charges every sample of a `pprof -traces` listing to the
// innermost frame under internal/<pkg>. Standard-library frames are
// charged to their nearest repo caller, so math.Log inside VIF counts
// under qoe and NormFloat64 inside the noise generator under media. The
// result maps "<layer>.cpu_share" for every layer, "other" and
// "runtime" (zero when unsampled) plus "runtime.alloc_share".
func attribute(traces string) (map[string]float64, error) {
	byLayer := make(map[string]time.Duration)
	var total, alloc time.Duration
	var value time.Duration
	var frames []string
	flush := func() {
		if len(frames) == 0 {
			return
		}
		byLayer[layerOf(frames)] += value
		total += value
		for _, f := range frames {
			if f == allocFrame {
				alloc += value
				break
			}
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(strings.NewReader(traces))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 {
			continue // the header above the first block
		}
		if len(frames) == 0 {
			// A block opens with the sample value, then the leaf frame.
			v, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			value = v
			fields = fields[1:]
		}
		frames = append(frames, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	shares := make(map[string]float64, len(shareLayers)+3)
	for _, l := range append(append([]string(nil), shareLayers...), "other", "runtime") {
		shares[l+".cpu_share"] = float64(byLayer[l]) / float64(total)
	}
	shares["runtime.alloc_share"] = float64(alloc) / float64(total)
	return shares, nil
}

// layerOf names the layer a sample's stack (leaf first) is charged to.
func layerOf(frames []string) string {
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, repoPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range shareLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	return "runtime"
}
