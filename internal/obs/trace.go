package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// SpanID identifies one span within a Tracer. Zero means "no parent".
type SpanID int64

// The span tiers of the campaign lifecycle, outermost first. A unit
// span always ends with exactly one terminal child: the tier that
// actually produced its result.
const (
	TierCampaign = "campaign"
	TierCell     = "cell"
	TierReplica  = "replica"
	TierUnit     = "unit"
	TierStore    = "store"
	TierDispatch = "dispatch"
	TierLocalRun = "local-run"
)

// tierOrder fixes the Summary rendering order to the lifecycle
// hierarchy rather than alphabetical.
var tierOrder = []string{TierCampaign, TierCell, TierReplica, TierUnit,
	TierStore, TierDispatch, TierLocalRun}

// span is one recorded interval. Envelope spans (cells, replicas)
// don't own an interval of their own — their extent is computed at
// export time from the min start / max end of their children, because
// a cell's replicas run interleaved across the worker pool and no
// single goroutine brackets them.
type span struct {
	id       SpanID
	parent   SpanID
	tier     string
	name     string
	start    int64
	end      int64
	envelope bool
	attrs    []Label
}

// Tracer records spans against an injected Clock. All methods are safe
// for concurrent use; a nil *Tracer is a no-op recorder, so call sites
// can be unconditional. Spans are held in memory until exported —
// intended for bounded CLI runs, not long-lived daemons.
type Tracer struct {
	clock Clock

	mu    sync.Mutex
	spans []*span
}

// NewTracer creates a tracer reading time from clock.
func NewTracer(clock Clock) *Tracer {
	return &Tracer{clock: clock}
}

// Start opens a span under parent (0 for a root) and returns its ID.
func (t *Tracer) Start(parent SpanID, tier, name string, attrs ...Label) SpanID {
	if t == nil {
		return 0
	}
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, &span{
		id: id, parent: parent, tier: tier, name: name,
		start: now, end: now, attrs: attrs,
	})
	return id
}

// End closes a span, stamping its end time and appending any
// result attributes.
func (t *Tracer) End(id SpanID, attrs ...Label) {
	if t == nil || id == 0 {
		return
	}
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	s.end = now
	s.attrs = append(s.attrs, attrs...)
}

// Open creates an envelope span: a grouping node (cell, replica) whose
// extent is derived from its children at export time. It needs no End.
func (t *Tracer) Open(parent SpanID, tier, name string, attrs ...Label) SpanID {
	if t == nil {
		return 0
	}
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, &span{
		id: id, parent: parent, tier: tier, name: name,
		start: now, end: now, envelope: true, attrs: attrs,
	})
	return id
}

// Len reports the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// CountTier reports how many spans were recorded at the given tier.
func (t *Tracer) CountTier(tier string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.tier == tier {
			n++
		}
	}
	return n
}

// finalized returns a snapshot with envelope extents resolved.
// Children always carry higher IDs than their parent (a span is
// created before anything it contains), so walking IDs in descending
// order resolves inner envelopes before the ones that contain them.
func (t *Tracer) finalized() []*span {
	t.mu.Lock()
	out := make([]*span, len(t.spans))
	for i, s := range t.spans {
		cp := *s
		out[i] = &cp
	}
	t.mu.Unlock()

	children := make(map[SpanID][]*span, len(out))
	for _, s := range out {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for i := len(out) - 1; i >= 0; i-- {
		s := out[i]
		if !s.envelope {
			continue
		}
		for _, c := range children[s.id] {
			if c.start < s.start {
				s.start = c.start
			}
			if c.end > s.end {
				s.end = c.end
			}
		}
	}
	return out
}

// spanJSON is the JSONL export schema: one object per line, parent 0
// for roots, durations in nanoseconds of the tracer's clock.
type spanJSON struct {
	ID      int64             `json:"id"`
	Parent  int64             `json:"parent"`
	Tier    string            `json:"tier"`
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"`
	DurNS   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// WriteJSONL exports every span as one JSON object per line, in span
// creation order.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, s := range t.finalized() {
		j := spanJSON{
			ID: int64(s.id), Parent: int64(s.parent),
			Tier: s.tier, Name: s.name,
			StartNS: s.start, DurNS: s.end - s.start,
		}
		if len(s.attrs) > 0 {
			j.Attrs = make(map[string]string, len(s.attrs))
			for _, a := range s.attrs {
				j.Attrs[a.Name] = a.Value
			}
		}
		if err := enc.Encode(j); err != nil {
			return err
		}
	}
	return nil
}

// Summary writes a per-tier digest — span count and summed duration —
// in lifecycle order, one line per tier that recorded spans.
func (t *Tracer) Summary(w io.Writer) error {
	if t == nil {
		return nil
	}
	type agg struct {
		n   int
		dur int64
	}
	byTier := make(map[string]*agg)
	for _, s := range t.finalized() {
		a := byTier[s.tier]
		if a == nil {
			a = &agg{}
			byTier[s.tier] = a
		}
		a.n++
		a.dur += s.end - s.start
	}
	// Known tiers first in lifecycle order, then any custom tiers
	// sorted by name — never map order.
	known := make(map[string]bool, len(tierOrder))
	order := append([]string(nil), tierOrder...)
	for _, tier := range tierOrder {
		known[tier] = true
	}
	var extra []string
	for tier := range byTier {
		if !known[tier] {
			extra = append(extra, tier)
		}
	}
	sort.Strings(extra)
	order = append(order, extra...)
	for _, tier := range order {
		a := byTier[tier]
		if a == nil {
			continue
		}
		if _, err := fmt.Fprintf(w, "trace: %-9s %5d spans, %12.6fs total\n",
			tier, a.n, float64(a.dur)/1e9); err != nil {
			return err
		}
	}
	return nil
}
