package store

import (
	"strings"
	"testing"
	"time"

	"github.com/vcabench/vcabench/internal/obs"
	"github.com/vcabench/vcabench/internal/obs/obstest"
)

// A telemetry-armed store exports its counters consistently and times
// reads and writes through the injected clock.
func TestStoreMetrics(t *testing.T) {
	clk := &obs.ManualClock{}
	tel := &obs.Telemetry{Metrics: obs.NewRegistry(), Clock: clk}
	s, err := OpenOptions(t.TempDir(), Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get("absent"); ok {
		t.Fatal("phantom hit")
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); !ok {
		t.Fatal("miss after put")
	}

	var b strings.Builder
	if err := tel.Metrics.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"vcabench_store_hits_total 1",
		"vcabench_store_misses_total 1",
		"vcabench_store_puts_total 1",
		"vcabench_store_corrupt_total 0",
		"vcabench_store_read_seconds_count 2",
		"vcabench_store_write_seconds_count 1",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	if probs := obstest.LintText([]byte(text)); len(probs) != 0 {
		t.Errorf("lint problems: %v", probs)
	}
}

// Latencies come from the injected clock, not the wall clock: with a
// manual clock advanced around a Put, the histogram lands the
// observation in the matching bucket deterministically.
func TestStoreLatencyUsesInjectedClock(t *testing.T) {
	clk := &stepClock{step: int64(2 * time.Second)}
	tel := &obs.Telemetry{Metrics: obs.NewRegistry(), Clock: clk}
	s, err := OpenOptions(t.TempDir(), Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tel.Metrics.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	// One 2 s observation: the le="1" bucket stays empty, le="2.5" has it.
	for _, want := range []string{
		`vcabench_store_write_seconds_bucket{le="1"} 0`,
		`vcabench_store_write_seconds_bucket{le="2.5"} 1`,
		"vcabench_store_write_seconds_sum 2",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

// stepClock advances by a fixed stride per reading, so a start/end
// pair brackets exactly one stride.
type stepClock struct {
	now  int64
	step int64
}

func (c *stepClock) Now() int64 {
	v := c.now
	c.now += c.step
	return v
}

// An unobserved store (no telemetry) must not register anything.
func TestStoreWithoutTelemetry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if s.readSec != nil || s.writeSec != nil || s.tel != nil {
		t.Fatal("bare store grew telemetry")
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); !ok {
		t.Fatal("miss")
	}
}
