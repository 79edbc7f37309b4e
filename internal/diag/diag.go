// Package diag is the deterministic sim-time flight recorder: the
// in-simulation counterpart of internal/obs (which observes the host
// process in wall time). Producers — simnet pipes, the event queue,
// trace players, platform rate control, client media pipelines — emit
// observations against the *virtual* clock through zero-overhead-when-
// nil probe seams; the recorder aggregates them into per-cell
// time-binned series and discrete event logs, exported as a versioned
// JSON document per campaign cell.
//
// Determinism is the design constraint: a recorder is fed by exactly
// one simulated unit (one forked testbed, one goroutine), every
// timestamp is an offset from the unit's sim start, and Finalize sorts
// all map-collected state — so for a given (seed, unit key) the
// encoded document is byte-identical at any worker count, cache
// temperature, or fleet placement. The package is stdlib-only and
// imports nothing from the simulator: producer packages define their
// own probe types and internal/core adapts them, keeping the
// dependency arrows pointing at the simulation, never out of it.
package diag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// Version numbers the CellDiag JSON schema. Decode rejects documents
// from a different schema so consumers never mis-read old artifacts.
const Version = 1

// Event kinds emitted by the instrumented stack. Producers outside
// this package use the same spellings; the recorder stores kinds
// verbatim, so new producers can add kinds without touching diag.
const (
	// KindRateTarget is a rate-ladder switch: the platform changed a
	// session's video bitrate target. Value is the new target in bits/s.
	KindRateTarget = "rate-target"
	// KindTraceStep is a trace-player step application: a scheduled
	// downlink reconfiguration fired. Value is the step's cap in bits/s
	// (0 = uncapped).
	KindTraceStep = "trace-step"
	// KindFECRecovery marks a receiver completing video frames despite
	// packet gaps observed since the last completion — the reassembler
	// recovered the frame from out-of-order arrivals. Value is the
	// number of frames completed by the triggering packet.
	KindFECRecovery = "fec-recovery"
	// KindFrameDrop marks a receiver's reassembler abandoning frames
	// whose packets never all arrived. Value is the frame count.
	KindFrameDrop = "frame-drop"
	// KindFreeze marks the start of a run of frozen display slots in a
	// scored recording. Value is the run length in slots.
	KindFreeze = "freeze"
)

// Cause classifies a pipe drop.
type Cause int

const (
	// CauseQueue is a tail drop: the access queue's byte bound was
	// exceeded.
	CauseQueue Cause = iota
	// CauseRandom is independent random loss (netem-style).
	CauseRandom
)

// CellDiag is one cell's flight-recorder document: totals, per-pipe
// time-binned series, event-queue depth bins, and the discrete event
// log, all in sim time relative to the cell's start.
//
//vcalint:ignore floatfmt BinSec is a finite constant bin width set by the recorder, never computed
type CellDiag struct {
	// Version is the schema version (see Version).
	Version int `json:"version"`
	// Key is the cell's canonical unit key ("" outside campaigns).
	Key string `json:"key"`
	// BinSec is the series bin width in seconds.
	BinSec float64 `json:"bin_sec"`
	// DropsQueue / DropsRandom total the pipe drops by cause across
	// every pipe of the cell.
	DropsQueue  int64 `json:"drops_queue"`
	DropsRandom int64 `json:"drops_random"`
	// Pipes holds one binned series per access-link direction that saw
	// traffic, sorted by pipe name.
	Pipes []PipeSeries `json:"pipes,omitempty"`
	// Queue bins the discrete-event queue's depth over sim time.
	Queue []QueueBin `json:"queue,omitempty"`
	// Events is the discrete event log in sim order.
	Events []Event `json:"events,omitempty"`
}

// PipeSeries is the binned series of one pipe (one direction of one
// node's access link, named "<node>/up" or "<node>/down").
type PipeSeries struct {
	Name string    `json:"name"`
	Bins []PipeBin `json:"bins"`
}

// PipeBin aggregates one pipe over one bin of sim time. Bins that saw
// no packets and no drops are omitted (series are sparse).
//
//vcalint:ignore floatfmt DelayMsMean averages finite sim durations over a positive count, 0 when no packet carried a delay
type PipeBin struct {
	// Bin is the bin index: the bin covers [Bin*BinSec, (Bin+1)*BinSec)
	// of sim time from the cell's start.
	Bin int `json:"bin"`
	// Packets / Bytes count forwarded packets and their L7 bytes.
	Packets int64 `json:"packets"`
	Bytes   int64 `json:"bytes"`
	// DropsQueue / DropsRandom count drops by cause.
	DropsQueue  int64 `json:"drops_queue,omitempty"`
	DropsRandom int64 `json:"drops_random,omitempty"`
	// QueueMaxBytes is the peak queue occupancy (wire bytes) observed
	// at enqueue time within the bin.
	QueueMaxBytes int `json:"queue_max_bytes"`
	// DelayMsMean is the mean queuing+serialization delay in ms of
	// packets forwarded in the bin (0 for unconstrained pipes).
	DelayMsMean float64 `json:"delay_ms_mean"`
}

// QueueBin aggregates the simulator's event queue over one bin: how
// many events executed and the peak pending-event depth.
type QueueBin struct {
	Bin      int   `json:"bin"`
	Steps    int64 `json:"steps"`
	DepthMax int   `json:"depth_max"`
}

// Event is one discrete occurrence in the cell's sim timeline.
//
//vcalint:ignore floatfmt AtSec is a finite sim-time offset and Value carries finite producer quantities (bitrates, counts)
type Event struct {
	// AtSec is the offset from the cell's sim start in seconds.
	AtSec float64 `json:"at_sec"`
	// Kind is one of the Kind* constants (or a producer-defined kind).
	Kind string `json:"kind"`
	// Subject names what the event happened to (a session, a trace, a
	// receiving client).
	Subject string `json:"subject,omitempty"`
	// Value is the kind-specific magnitude.
	Value float64 `json:"value,omitempty"`
}

// Recorder accumulates one cell's observations. It is deliberately not
// safe for concurrent use: one recorder belongs to one simulated unit,
// which runs on one goroutine — sharing a recorder across units would
// also break determinism, not just memory safety.
type Recorder struct {
	key   string
	start time.Time
	bin   time.Duration

	pipes  map[string]map[int]*pipeBinAgg
	queue  map[int]*QueueBin
	events []Event

	dropsQueue, dropsRandom int64
}

// pipeBinAgg is a PipeBin under construction plus the delay-mean state.
type pipeBinAgg struct {
	PipeBin
	delaySum time.Duration
	delayN   int64
}

// NewRecorder creates a recorder for one cell. start anchors every
// offset (pass the unit testbed's sim time at creation — its Epoch);
// bin is the series bin width.
func NewRecorder(key string, start time.Time, bin time.Duration) *Recorder {
	if bin <= 0 {
		panic("diag: NewRecorder with non-positive bin width")
	}
	return &Recorder{
		key:   key,
		start: start,
		bin:   bin,
		pipes: make(map[string]map[int]*pipeBinAgg),
		queue: make(map[int]*QueueBin),
	}
}

// binIndex maps a sim instant to its bin.
func (r *Recorder) binIndex(at time.Time) int {
	d := at.Sub(r.start)
	if d < 0 {
		return 0
	}
	return int(d / r.bin)
}

func (r *Recorder) pipeBin(name string, at time.Time) *pipeBinAgg {
	bins, ok := r.pipes[name]
	if !ok {
		bins = make(map[int]*pipeBinAgg)
		r.pipes[name] = bins
	}
	i := r.binIndex(at)
	b, ok := bins[i]
	if !ok {
		b = &pipeBinAgg{}
		b.Bin = i
		bins[i] = b
	}
	return b
}

// PipeForwarded records one packet forwarded through a pipe: its L7
// and wire sizes, the queue occupancy at enqueue (wire bytes, 0 on
// the unconstrained fast path) and the queuing+serialization delay.
func (r *Recorder) PipeForwarded(name string, at time.Time, l7, wire, queuedBytes int, wait time.Duration) {
	b := r.pipeBin(name, at)
	b.Packets++
	b.Bytes += int64(l7)
	if queuedBytes > b.QueueMaxBytes {
		b.QueueMaxBytes = queuedBytes
	}
	b.delaySum += wait
	b.delayN++
}

// PipeDropped records one packet dropped at a pipe.
func (r *Recorder) PipeDropped(name string, at time.Time, wire int, cause Cause) {
	b := r.pipeBin(name, at)
	if cause == CauseRandom {
		b.DropsRandom++
		r.dropsRandom++
	} else {
		b.DropsQueue++
		r.dropsQueue++
	}
}

// StepExecuted records one discrete-event step: the instant it ran and
// the number of events still pending after it was popped.
func (r *Recorder) StepExecuted(at time.Time, depth int) {
	i := r.binIndex(at)
	b, ok := r.queue[i]
	if !ok {
		b = &QueueBin{Bin: i}
		r.queue[i] = b
	}
	b.Steps++
	if depth > b.DepthMax {
		b.DepthMax = depth
	}
}

// Event appends one discrete event. Producers call this in sim order
// (the simulator is single-threaded per unit), so the log needs no
// sorting to be deterministic.
func (r *Recorder) Event(at time.Time, kind, subject string, value float64) {
	r.events = append(r.events, Event{
		AtSec:   at.Sub(r.start).Seconds(),
		Kind:    kind,
		Subject: subject,
		Value:   value,
	})
}

// Finalize snapshots the recorder into a CellDiag, sorting every
// map-collected aggregate (pipes by name, bins by index) so the result
// is independent of map iteration order. The recorder remains usable;
// calling Finalize again reflects any observations recorded since.
func (r *Recorder) Finalize() *CellDiag {
	d := &CellDiag{
		Version:     Version,
		Key:         r.key,
		BinSec:      r.bin.Seconds(),
		DropsQueue:  r.dropsQueue,
		DropsRandom: r.dropsRandom,
	}
	names := make([]string, 0, len(r.pipes))
	for name := range r.pipes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bins := r.pipes[name]
		ps := PipeSeries{Name: name, Bins: make([]PipeBin, 0, len(bins))}
		//vcalint:ignore maprange the bin slice is sorted by index immediately below, erasing iteration order
		for _, b := range bins {
			pb := b.PipeBin
			if b.delayN > 0 {
				pb.DelayMsMean = float64(b.delaySum.Nanoseconds()) / float64(b.delayN) / 1e6
			}
			ps.Bins = append(ps.Bins, pb)
		}
		sort.Slice(ps.Bins, func(i, j int) bool { return ps.Bins[i].Bin < ps.Bins[j].Bin })
		d.Pipes = append(d.Pipes, ps)
	}
	d.Queue = make([]QueueBin, 0, len(r.queue))
	//vcalint:ignore maprange the queue bins are sorted by index immediately below, erasing iteration order
	for _, b := range r.queue {
		d.Queue = append(d.Queue, *b)
	}
	sort.Slice(d.Queue, func(i, j int) bool { return d.Queue[i].Bin < d.Queue[j].Bin })
	if len(d.Queue) == 0 {
		d.Queue = nil
	}
	d.Events = append([]Event(nil), r.events...)
	return d
}

// Encode renders the document as indented JSON with a trailing
// newline — the versioned artifact format written by `vcabench
// -diag-out` and served by vcabenchd's /cells/{key}/diag. Encoding is
// deterministic: field order follows the struct, and every slice was
// sorted at Finalize.
func Encode(d *CellDiag) ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("diag: encode %q: %w", d.Key, err)
	}
	return append(b, '\n'), nil
}

// Decode parses an encoded document, rejecting unknown schema
// versions and trailing garbage. It never panics on malformed input
// (fuzzed in diag_test.go).
func Decode(data []byte) (*CellDiag, error) {
	var d CellDiag
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("diag: decode: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("diag: decode: trailing data after the document")
	}
	if d.Version != Version {
		return nil, fmt.Errorf("diag: unsupported document version %d (want %d)", d.Version, Version)
	}
	return &d, nil
}
