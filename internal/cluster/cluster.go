// Package cluster turns a fleet of vcabenchd processes into one
// logical campaign scheduler. A Pool implements core.Dispatcher by
// sharding campaign unit keys across workers over the daemon's
// POST /units endpoint: each unit has a preferred worker derived from
// its key (so reruns hit the same worker's warm store), in-flight
// requests are bounded per worker, failures retry on the next worker
// with exponential backoff, and a worker that errors enters a cooldown
// during which it is skipped — it rejoins only after a successful
// /healthz probe.
//
// The merge back into a CampaignResult happens in core's scheduler
// seam (see internal/core/dispatch.go): the pool only moves the cell
// store's canonical cell encoding over the wire. Because every cell's
// seed derives from its unit key, placement cannot leak into results —
// the merged document is byte-identical to a single-machine run for
// any fleet size, worker mix or failure pattern, including total fleet
// loss (units the pool gives up on compute locally).
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vcabench/vcabench/internal/core"
	"github.com/vcabench/vcabench/internal/obs"
)

// Defaults for the zero Options.
const (
	DefaultInFlight = 4
	DefaultRetries  = 3
	DefaultBackoff  = 100 * time.Millisecond
	DefaultTimeout  = 5 * time.Minute
	DefaultCooldown = 5 * time.Second
)

// Options tunes a Pool. The zero value selects the defaults above.
type Options struct {
	// InFlight bounds concurrent unit requests per worker; excess
	// dispatches for a worker queue on its slots.
	InFlight int
	// Retries is how many additional attempts a failed unit gets on
	// other (or recovered) workers before the pool hands it back for
	// local execution. Zero selects DefaultRetries; negative disables
	// retries entirely (fail over to local after the first error).
	Retries int
	// Backoff is the delay before the first retry, doubling per
	// attempt.
	Backoff time.Duration
	// Timeout bounds one unit request end to end. Units run a full
	// QoE session, so this is minutes, not seconds.
	Timeout time.Duration
	// Cooldown is how long a failed worker is skipped before a
	// /healthz probe may readmit it.
	Cooldown time.Duration
	// Client overrides the HTTP client (tests); per-request timeouts
	// are applied via contexts either way.
	Client *http.Client
	// Telemetry, when set with a registry, exports the pool counters as
	// vcabench_cluster_* series. At most one Pool may export into a
	// given registry. Telemetry never changes dispatch behaviour.
	Telemetry *obs.Telemetry
}

func (o Options) withDefaults() Options {
	if o.InFlight <= 0 {
		o.InFlight = DefaultInFlight
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = DefaultRetries
	}
	if o.Backoff <= 0 {
		o.Backoff = DefaultBackoff
	}
	if o.Timeout <= 0 {
		o.Timeout = DefaultTimeout
	}
	if o.Cooldown <= 0 {
		o.Cooldown = DefaultCooldown
	}
	return o
}

// errWorkerDown marks a dispatch that bailed out of a slot queue
// because the worker was marked down while the unit waited; no request
// was sent, so the worker is not re-penalized.
var errWorkerDown = errors.New("worker down")

// Pool is a worker fleet acting as one core.Dispatcher. Safe for
// concurrent use; the scheduler dispatches every missing unit of a
// campaign at once.
type Pool struct {
	workers []*worker
	opt     Options
	client  *http.Client

	// All traffic counters — pool-wide and per-worker — live behind
	// one mutex rather than scattered atomics, so a Stats snapshot or
	// a /metrics scrape reads them at a single instant: a unit counted
	// in a worker's done can never be missing from the pool's remote
	// in the same view.
	statsMu sync.Mutex
	stats   poolCounters
}

// poolCounters is the mutable half of Stats; workers is indexed like
// Pool.workers.
type poolCounters struct {
	remote    uint64 // units served by the fleet
	errored   uint64 // failed unit attempts (retried or given up)
	fallbacks uint64 // units handed back for local execution
	retries   uint64 // extra attempts after a first failure
	workers   []workerCounters
}

// workerCounters is one worker's share of the pool traffic.
type workerCounters struct {
	done      uint64
	errs      uint64
	cooldowns uint64 // times the worker entered a failure cooldown
}

// count mutates the counters under the stats lock.
func (p *Pool) count(f func(*poolCounters)) {
	p.statsMu.Lock()
	f(&p.stats)
	p.statsMu.Unlock()
}

// worker is one vcabenchd endpoint plus its health state. Traffic
// counters live in Pool.stats (indexed by idx) so they snapshot
// consistently.
type worker struct {
	idx   int
	url   string
	slots chan struct{} // bounds in-flight unit requests

	state atomic.Pointer[workerState]
}

// workerState is the worker's health snapshot, swapped atomically.
type workerState struct {
	suspect   bool      // must pass a /healthz probe before reuse
	downUntil time.Time // skipped entirely until then
}

// New builds a Pool over vcabenchd base URLs ("http://host:8547").
func New(urls []string, opt Options) (*Pool, error) {
	if len(urls) == 0 {
		return nil, errors.New("cluster: a pool needs at least one worker URL")
	}
	p := &Pool{opt: opt.withDefaults()}
	p.client = p.opt.Client
	if p.client == nil {
		p.client = &http.Client{}
	}
	seen := make(map[string]bool, len(urls))
	for _, raw := range urls {
		u, err := url.Parse(raw)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: worker URL %q: want http(s)://host:port", raw)
		}
		base := strings.TrimRight(raw, "/")
		if seen[base] {
			return nil, fmt.Errorf("cluster: duplicate worker URL %q", base)
		}
		seen[base] = true
		w := &worker{idx: len(p.workers), url: base, slots: make(chan struct{}, p.opt.InFlight)}
		w.state.Store(&workerState{})
		p.workers = append(p.workers, w)
	}
	p.stats.workers = make([]workerCounters, len(p.workers))
	if t := p.opt.Telemetry; t != nil && t.Metrics != nil {
		t.Metrics.RegisterGroup(p.emitMetrics)
	}
	return p, nil
}

// emitMetrics exports the pool counters on each scrape. The whole
// fleet's view comes from one lock acquisition — per-worker dispatch
// counts always sum to the pool totals on the wire.
func (p *Pool) emitMetrics(g *obs.Group) {
	p.statsMu.Lock()
	st := p.stats
	st.workers = append([]workerCounters(nil), p.stats.workers...)
	p.statsMu.Unlock()

	result := func(v string) []obs.Label { return []obs.Label{{Name: "result", Value: v}} }
	g.Emit("vcabench_cluster_units_total", "Unit dispatch outcomes across the fleet.", obs.TypeCounter,
		obs.Sample{Labels: result("remote"), Value: float64(st.remote)},
		obs.Sample{Labels: result("error"), Value: float64(st.errored)},
		obs.Sample{Labels: result("fallback"), Value: float64(st.fallbacks)})
	g.Emit("vcabench_cluster_retries_total", "Extra dispatch attempts after a first failure.", obs.TypeCounter,
		obs.Sample{Value: float64(st.retries)})

	units := make([]obs.Sample, 0, 2*len(p.workers))
	cooldowns := make([]obs.Sample, 0, len(p.workers))
	inflight := make([]obs.Sample, 0, len(p.workers))
	for i, w := range p.workers {
		wl := func(res string) []obs.Label {
			l := []obs.Label{{Name: "worker", Value: w.url}}
			if res != "" {
				l = append(l, obs.Label{Name: "result", Value: res})
			}
			return l
		}
		units = append(units,
			obs.Sample{Labels: wl("done"), Value: float64(st.workers[i].done)},
			obs.Sample{Labels: wl("err"), Value: float64(st.workers[i].errs)})
		cooldowns = append(cooldowns, obs.Sample{Labels: wl(""), Value: float64(st.workers[i].cooldowns)})
		inflight = append(inflight, obs.Sample{Labels: wl(""), Value: float64(len(w.slots))})
	}
	g.Emit("vcabench_cluster_worker_units_total", "Unit requests per worker, by outcome.", obs.TypeCounter, units...)
	g.Emit("vcabench_cluster_worker_cooldowns_total", "Times a worker entered a failure cooldown.", obs.TypeCounter, cooldowns...)
	g.Emit("vcabench_cluster_worker_inflight", "Unit requests currently held by each worker's slots.", obs.TypeGauge, inflight...)
}

// Workers returns the configured worker base URLs in order.
func (p *Pool) Workers() []string {
	out := make([]string, len(p.workers))
	for i, w := range p.workers {
		out[i] = w.url
	}
	return out
}

// keyHash places a unit on its preferred worker. Placement is pure
// optimization (store affinity plus load spread): results never depend
// on it. FNV's low bits avalanche poorly — sibling campaign keys can
// all share a parity, starving half a fleet — so the sum is finalized
// murmur3-style before the "% len(workers)" fold.
func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// DispatchUnit implements core.Dispatcher: run one campaign cell on
// the fleet, trying the key's preferred worker first and failing over
// to the others with exponential backoff. An error means the caller
// should compute the unit locally.
func (p *Pool) DispatchUnit(req core.UnitRequest) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		p.count(func(c *poolCounters) { c.fallbacks++ })
		return nil, fmt.Errorf("cluster: encode unit request: %w", err)
	}
	start := int(keyHash(req.Key) % uint64(len(p.workers)))
	backoff := p.opt.Backoff
	var lastErr error
	for attempt := 0; attempt <= p.opt.Retries; attempt++ {
		if attempt > 0 {
			p.count(func(c *poolCounters) { c.retries++ })
		}
		w := p.pick(start + attempt)
		if w == nil {
			lastErr = fmt.Errorf("all %d workers down", len(p.workers))
			break
		}
		data, err := p.runUnit(w, body)
		if err == nil {
			p.count(func(c *poolCounters) {
				c.remote++
				c.workers[w.idx].done++
			})
			return data, nil
		}
		lastErr = err
		if errors.Is(err, errWorkerDown) {
			// Siblings already marked the worker down while this unit
			// sat in its slot queue; move on without re-penalizing it
			// or paying backoff — nothing was actually sent.
			p.count(func(c *poolCounters) { c.errored++ })
			continue
		}
		p.count(func(c *poolCounters) {
			c.errored++
			c.workers[w.idx].errs++
			c.workers[w.idx].cooldowns++
		})
		w.markDown(p.opt.Cooldown)
		if attempt < p.opt.Retries {
			time.Sleep(backoff)
			backoff *= 2
		}
	}
	p.count(func(c *poolCounters) { c.fallbacks++ })
	return nil, fmt.Errorf("cluster: unit %q: %w", req.Key, lastErr)
}

// pick scans the fleet from the given offset and returns the first
// worker available to take a unit, or nil when every worker is in
// cooldown or failed its readmission probe.
func (p *Pool) pick(from int) *worker {
	n := len(p.workers)
	for i := 0; i < n; i++ {
		w := p.workers[(from+i)%n]
		if p.available(w) {
			return w
		}
	}
	return nil
}

// runUnit posts one unit to one worker under its in-flight bound and
// returns the cell encoding.
func (p *Pool) runUnit(w *worker, body []byte) ([]byte, error) {
	w.slots <- struct{}{}
	defer func() { <-w.slots }()

	// The wait in the slot queue may have outlived the worker: a unit
	// that committed to this worker while it was healthy must fail
	// over immediately once siblings have marked it down, instead of
	// burning a full request timeout on a known-dead endpoint.
	if !p.available(w) {
		return nil, fmt.Errorf("%s: %w while queued", w.url, errWorkerDown)
	}

	ctx, cancel := context.WithTimeout(context.Background(), p.opt.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/units", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: read cell: %w", w.url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", w.url, resp.Status, firstLine(data))
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("%s: empty cell response", w.url)
	}
	return data, nil
}

// firstLine keeps error bodies readable in logs.
func firstLine(data []byte) string {
	s := strings.TrimSpace(string(data))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// Stats counts pool traffic since New.
type Stats struct {
	// Remote is the number of units a worker served.
	Remote uint64
	// Errors is the number of failed unit attempts (each may have been
	// retried elsewhere).
	Errors uint64
	// Fallbacks is the number of units the pool gave up on; core
	// computed those locally.
	Fallbacks uint64
	// Retries is the number of extra attempts made after a first
	// failure (every retry is also counted in Errors if it fails).
	Retries uint64
	// Workers breaks traffic down per worker, in configuration order.
	Workers []WorkerStats
}

// WorkerStats is one worker's share of the pool traffic.
type WorkerStats struct {
	URL       string
	Done      uint64
	Errs      uint64
	Cooldowns uint64
}

// Stats snapshots the pool counters at a single instant — taken under
// one lock, so per-worker counts always sum to the pool totals.
func (p *Pool) Stats() Stats {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	st := Stats{
		Remote:    p.stats.remote,
		Errors:    p.stats.errored,
		Fallbacks: p.stats.fallbacks,
		Retries:   p.stats.retries,
	}
	for i, w := range p.workers {
		c := p.stats.workers[i]
		st.Workers = append(st.Workers, WorkerStats{URL: w.url, Done: c.done, Errs: c.errs, Cooldowns: c.cooldowns})
	}
	return st
}
