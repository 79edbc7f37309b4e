// Package serve is the campaign service behind cmd/vcabenchd: an HTTP
// daemon that accepts declarative campaign specs, executes them through
// the shared scheduler and (optionally) a persistent cell store, and
// serves typed JSON results. Many clients thereby share one warm cache:
// the measurement-platform shape of MacMillan et al. (2021) and Kumar
// et al. (2022), where overlapping grid queries hit a common corpus of
// expensive measurements.
//
// API:
//
//	POST /campaigns            {"spec": {...}, "scale": "quick", "seed": 42}
//	                           → 202 {"id": "...", "status": "queued", ...}
//	GET  /campaigns/{id}       → job status (queued|running|done|failed)
//	GET  /campaigns/{id}/result→ the CampaignResult JSON document,
//	                             byte-identical to `vcabench -campaign
//	                             spec.json -json -` at the same scale/seed
//	GET  /cells/{key}          → one completed cell by canonical unit key,
//	                             at the server's default scale and seed;
//	                             ?scale= and ?seed= select others. Within
//	                             one (scale, seed), campaigns sharing keys
//	                             (fig12/fig14) agree on cell contents.
//	                             Misses fall back to the persistent store,
//	                             so cells survive daemon restarts and job
//	                             eviction.
//	GET  /cells/{key}/diag     → the cell's sim-time flight-recorder
//	                             artifact (see internal/diag), when the
//	                             server runs with Config.Diagnostics;
//	                             byte-identical to what `vcabench
//	                             -diag-out` writes for the same cell.
//	POST /units                {"spec": {...}, "scale": "tiny", "seed": 42,
//	                            "key": "grid/zoom"} → the cell's canonical
//	                             binary encoding (application/octet-stream).
//	                             This is the worker half of distributed
//	                             execution: a cluster.Pool coordinator
//	                             shards a campaign's unit keys across a
//	                             fleet of these endpoints (see
//	                             internal/cluster), and the worker's
//	                             persistent store makes repeated cells
//	                             free.
//	GET  /healthz              → liveness plus store statistics
//
// Campaign IDs are content-derived — SHA-256 over (resolved spec, scale,
// seed) — so resubmitting a spec returns the existing job instead of
// recomputing, and identical specs race-merge onto one execution.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/vcabench/vcabench/internal/core"
	"github.com/vcabench/vcabench/internal/diag"
	"github.com/vcabench/vcabench/internal/obs"
	"github.com/vcabench/vcabench/internal/report"
	"github.com/vcabench/vcabench/internal/store"
)

// Config tunes a Server.
type Config struct {
	// Seed is the default simulation seed for requests that omit one.
	Seed int64
	// Scale is the default experiment scale for requests that omit one.
	Scale core.Scale
	// Workers bounds each campaign's scheduler pool (0 = GOMAXPROCS).
	Workers int
	// MaxRuns bounds concurrently executing campaigns (0 = NumCPU,
	// min 1); queued jobs wait their turn.
	MaxRuns int
	// Store, when non-nil, is the persistent cell store shared by every
	// campaign this server executes (and any CLI pointed at the same
	// directory).
	Store core.CellStore
	// MaxJobs bounds retained finished jobs (0 = DefaultMaxJobs).
	// Beyond it the oldest finished job — result document and its
	// cells-index entries — is dropped; resubmitting its spec re-runs
	// it, served warm from the store. Queued and running jobs are
	// never evicted.
	MaxJobs int
	// Telemetry, when set with a registry, mounts GET /metrics on the
	// handler, exports job and unit counters, and attaches the bundle
	// to every job's testbed so engine series (units, in-flight, wall
	// time) report here too. At most one Server may export into a given
	// registry. Telemetry never changes results.
	Telemetry *obs.Telemetry
	// Diagnostics arms the sim-time flight recorder on every campaign
	// this server executes: each cell's CellDiag document becomes
	// servable at GET /cells/{key}/diag (and persists in Store under
	// the servediag/ namespace), and cell JSON gains drop-cause
	// fields. Diagnostics-armed cells cache separately from bare ones,
	// so flipping this flag never reads a cache warmed the other way.
	Diagnostics bool
}

// DefaultMaxJobs bounds retained finished jobs when Config.MaxJobs is
// unset. Results and cell indexes live in memory; without a bound,
// clients sweeping seeds or scales would grow the daemon without limit
// even though the persistent store already holds every cell on disk.
const DefaultMaxJobs = 256

// Server executes submitted campaigns and serves their results.
type Server struct {
	cfg Config
	sem chan struct{} // bounds concurrent campaign executions

	// tel and its counters are set once in New and read-only after;
	// nil means unobserved.
	tel        *obs.Telemetry
	mUnits     *obs.Counter
	mCampaigns *obs.Counter

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string          // finished job ids, oldest first
	cells    map[string][]byte // scoped cell key → CellResult JSON
	cellRefs map[string]int    // retained jobs referencing each key
	diags    map[string][]byte // scoped cell key → CellDiag JSON artifact
}

// cellIndexKey scopes the /cells index: the same unit key holds
// different values at different scales or seeds, so the bare key would
// let one client's seed override silently shadow another's cells.
func cellIndexKey(scaleName string, seed int64, unitKey string) string {
	return fmt.Sprintf("%s/%d/%s", scaleName, seed, unitKey)
}

// job is one submitted campaign execution.
type job struct {
	id        string
	name      string
	scaleName string
	seed      int64
	spec      core.Campaign

	status   string // "queued" | "running" | "done" | "failed"
	errMsg   string
	result   []byte // WriteJSON bytes of the CampaignResult
	cells    int
	cellKeys []string      // keys this job contributed to the cells index
	done     chan struct{} // closed on done/failed
}

// New creates a Server. The zero Config is usable: seed 0, quick scale
// defaults applied by the daemon's flags normally override these.
func New(cfg Config) *Server {
	if cfg.Scale.Name == "" {
		cfg.Scale = core.QuickScale
	}
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = runtime.NumCPU()
		if cfg.MaxRuns < 1 {
			cfg.MaxRuns = 1
		}
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	s := &Server{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxRuns),
		jobs:     make(map[string]*job),
		cells:    make(map[string][]byte),
		cellRefs: make(map[string]int),
		diags:    make(map[string][]byte),
	}
	if cfg.Telemetry != nil && cfg.Telemetry.Metrics != nil {
		s.tel = cfg.Telemetry
		reg := s.tel.Metrics
		s.mCampaigns = reg.Counter("vcabench_serve_campaigns_total",
			"Campaign jobs accepted (deduplicated resubmissions not counted).")
		s.mUnits = reg.Counter("vcabench_serve_units_total",
			"Units executed for distributed coordinators via POST /units.")
		// Pre-create the engine families so a scrape before the first
		// job already shows the full catalog.
		core.RegisterEngineMetrics(reg)
		reg.RegisterGroup(s.emitMetrics)
	}
	return s
}

// emitMetrics exports the job table on each scrape: one gauge per
// lifecycle state, counted under the server's own lock so the states
// always sum to the job total in a single view.
func (s *Server) emitMetrics(g *obs.Group) {
	var queued, running, done, failed float64
	s.mu.Lock()
	//vcalint:ignore maprange order-independent tally into fixed counters; nothing is emitted per entry
	for _, j := range s.jobs {
		switch j.status {
		case "queued":
			queued++
		case "running":
			running++
		case "done":
			done++
		case "failed":
			failed++
		}
	}
	s.mu.Unlock()
	status := func(v string) []obs.Label { return []obs.Label{{Name: "status", Value: v}} }
	g.Emit("vcabench_jobs", "Retained campaign jobs by lifecycle state.", obs.TypeGauge,
		obs.Sample{Labels: status("queued"), Value: queued},
		obs.Sample{Labels: status("running"), Value: running},
		obs.Sample{Labels: status("done"), Value: done},
		obs.Sample{Labels: status("failed"), Value: failed})
}

// Handler returns the server's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /cells/{key...}", s.handleCell)
	mux.HandleFunc("POST /units", s.handleUnit)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	if s.tel != nil {
		mux.Handle("GET /metrics", obs.Handler(s.tel.Metrics))
	}
	return mux
}

// submitRequest is the POST /campaigns body. Spec is kept raw so the
// campaign parser's strict decoding (unknown fields, trailing data)
// applies to it verbatim.
type submitRequest struct {
	Spec  json.RawMessage `json:"spec"`
	Scale string          `json:"scale,omitempty"`
	Seed  *int64          `json:"seed,omitempty"`
}

// jobStatus is the wire form of a job.
type jobStatus struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Scale  string `json:"scale"`
	Seed   int64  `json:"seed"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Cells is the number of result cells once the job is done.
	Cells int `json:"cells,omitempty"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	msg, _ := json.Marshal(fmt.Sprintf(format, args...))
	fmt.Fprintf(w, "{\"error\": %s}\n", msg)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	report.WriteJSON(w, v)
}

// resolveSubmission applies the daemon defaults to a request's raw
// spec, scale name and optional seed — shared by the campaign and unit
// endpoints so the two halves of the API cannot drift. Errors map to
// 400.
func (s *Server) resolveSubmission(rawSpec json.RawMessage, scaleName string, seed *int64) (core.Campaign, core.Scale, int64, error) {
	if len(rawSpec) == 0 {
		return core.Campaign{}, core.Scale{}, 0, fmt.Errorf("request needs a \"spec\" field holding a campaign")
	}
	spec, err := core.ParseCampaign(rawSpec)
	if err != nil {
		return core.Campaign{}, core.Scale{}, 0, err
	}
	sc := s.cfg.Scale
	if scaleName != "" {
		var ok bool
		if sc, ok = core.ScaleByName(scaleName); !ok {
			return core.Campaign{}, core.Scale{}, 0, fmt.Errorf("unknown scale %q (want tiny, quick or paper)", scaleName)
		}
	}
	sd := s.cfg.Seed
	if seed != nil {
		sd = *seed
	}
	return spec, sc, sd, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	spec, sc, seed, err := s.resolveSubmission(req.Spec, req.Scale, req.Seed)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	id := campaignID(spec, sc.Name, seed)
	s.mu.Lock()
	j, exists := s.jobs[id]
	if !exists {
		j = &job{
			id: id, name: spec.Name, scaleName: sc.Name, seed: seed,
			spec: spec, status: "queued", done: make(chan struct{}),
		}
		s.jobs[id] = j
		if s.mCampaigns != nil {
			s.mCampaigns.Inc()
		}
		go s.run(j, sc)
	}
	st := s.statusOf(j)
	s.mu.Unlock()
	code := http.StatusAccepted
	if exists {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// campaignID derives the content address of a submission. Campaign
// JSON marshalling is deterministic (fixed struct field order), so
// equal submissions collapse onto one job.
func campaignID(spec core.Campaign, scaleName string, seed int64) string {
	raw, err := json.Marshal(spec)
	if err != nil {
		// Campaign is a plain data struct; Marshal cannot fail on it.
		panic("serve: marshal campaign: " + err.Error())
	}
	sum := sha256.New()
	sum.Write(raw)
	fmt.Fprintf(sum, "|%s|%d", scaleName, seed)
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

// run executes one job under the concurrency bound.
func (s *Server) run(j *job, sc core.Scale) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	s.mu.Lock()
	j.status = "running"
	s.mu.Unlock()

	fail := func(msg string) {
		s.mu.Lock()
		j.status = "failed"
		j.errMsg = msg
		s.finish(j)
		s.mu.Unlock()
		close(j.done)
	}

	// The engine panics on internal invariant violations, and this
	// goroutine — unlike an http handler's — would otherwise take the
	// whole daemon (and every other client's jobs) down with it.
	defer func() {
		if r := recover(); r != nil {
			fail(fmt.Sprintf("panic: %v", r))
		}
	}()

	tb := core.NewTestbed(j.seed).SetParallelism(s.cfg.Workers)
	if s.cfg.Store != nil {
		tb.WithStore(s.cfg.Store)
	}
	if s.tel != nil {
		tb.WithTelemetry(s.tel)
	}
	if s.cfg.Diagnostics {
		tb.WithDiagnostics()
	}
	res, err := core.RunCampaign(tb, j.spec, sc)
	if err != nil {
		fail(err.Error())
		return
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, res); err != nil {
		fail("encode result: " + err.Error())
		return
	}

	type cellDoc struct {
		unitKey string
		data    []byte
	}
	var docs []cellDoc
	for i := range res.Cells {
		c := &res.Cells[i]
		var cb bytes.Buffer
		if report.WriteJSON(&cb, c) == nil {
			docs = append(docs, cellDoc{unitKey: c.Key, data: cb.Bytes()})
		}
	}
	// Flight-recorder documents ride alongside the rendered cells:
	// same scoping, same eviction, served at GET /cells/{key}/diag.
	var diagDocs []cellDoc
	if s.cfg.Diagnostics {
		for _, d := range tb.DiagResults() {
			if data, err := diag.Encode(d); err == nil {
				diagDocs = append(diagDocs, cellDoc{unitKey: d.Key, data: data})
			}
		}
	}
	// Persist the rendered cells before the job turns "done": once a
	// poller sees the terminal status, every cell must be servable —
	// from memory while the job is retained, from the store after a
	// restart or eviction. Deterministic cells make the write
	// idempotent, so an already-present document (a warm rerun, or a
	// sibling campaign sharing the key) is left alone — the Get costs
	// a small read (absorbed by the store's LRU) but preserves the
	// invariant that warm reruns perform zero Puts; failed Puts only
	// narrow the fallback.
	if s.cfg.Store != nil {
		for _, d := range docs {
			key := core.ServeCellKey(j.scaleName, j.seed, d.unitKey)
			if _, ok := s.cfg.Store.Get(key); !ok {
				s.cfg.Store.Put(key, d.data)
			}
		}
		// Diag artifacts are as deterministic as the cells, so the same
		// Get-before-Put idempotence applies.
		for _, d := range diagDocs {
			key := core.ServeDiagKey(j.scaleName, j.seed, d.unitKey)
			if _, ok := s.cfg.Store.Get(key); !ok {
				s.cfg.Store.Put(key, d.data)
			}
		}
	}

	s.mu.Lock()
	j.status = "done"
	j.result = buf.Bytes()
	j.cells = len(res.Cells)
	for _, d := range docs {
		ck := cellIndexKey(j.scaleName, j.seed, d.unitKey)
		s.cells[ck] = d.data
		s.cellRefs[ck]++
		j.cellKeys = append(j.cellKeys, ck)
	}
	for _, d := range diagDocs {
		// Diag entries ride the same refcounted eviction as cells. They
		// need their own counts: a replicated campaign's diag documents
		// are keyed per replica ("<cellKey>/rep=K"), which never appears
		// in the cells index.
		ck := cellIndexKey(j.scaleName, j.seed, d.unitKey)
		s.diags[ck] = d.data
		s.cellRefs[ck]++
		j.cellKeys = append(j.cellKeys, ck)
	}
	s.finish(j)
	s.mu.Unlock()
	close(j.done)
}

// finish records a terminal job and evicts the oldest finished jobs
// beyond MaxJobs — result documents and cell-index entries are dropped
// (the persistent store still holds every computed cell, so a
// resubmission re-runs warm). "Oldest" is by completion, not
// submission: evicting in submission order would drop a slow job the
// moment it finishes, and its poller would get a 404 for a result it
// never saw. Caller holds s.mu.
func (s *Server) finish(j *job) {
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.MaxJobs {
		old := s.jobs[s.finished[0]]
		s.finished = s.finished[1:]
		if old == nil {
			continue
		}
		for _, key := range old.cellKeys {
			if s.cellRefs[key]--; s.cellRefs[key] <= 0 {
				delete(s.cellRefs, key)
				delete(s.cells, key)
				delete(s.diags, key)
			}
		}
		delete(s.jobs, old.id)
	}
}

// statusOf snapshots a job; caller holds s.mu.
func (s *Server) statusOf(j *job) jobStatus {
	return jobStatus{
		ID: j.id, Name: j.name, Scale: j.scaleName, Seed: j.seed,
		Status: j.status, Error: j.errMsg, Cells: j.cells,
	}
}

func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	st := s.statusOf(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	status, errMsg, result := j.status, j.errMsg, j.result
	s.mu.Unlock()
	switch status {
	case "done":
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
	case "failed":
		httpError(w, http.StatusConflict, "campaign failed: %s", errMsg)
	default:
		httpError(w, http.StatusAccepted, "campaign is %s; poll GET /campaigns/%s", status, j.id)
	}
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	// The {key...} wildcard swallows the whole remaining path, so the
	// /cells/{key}/diag route is dispatched here by suffix: a trailing
	// "/diag" selects the cell's flight-recorder artifact instead of
	// its result JSON.
	if base, ok := strings.CutSuffix(key, "/diag"); ok && base != "" {
		s.serveCellDiag(w, r, base)
		return
	}
	scaleName, seed, ok := s.cellScope(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	data, ok := s.cells[cellIndexKey(scaleName, seed, key)]
	s.mu.Unlock()
	if !ok && s.cfg.Store != nil {
		// The in-memory index only spans retained jobs; the store holds
		// every cell this daemon (or a predecessor sharing the cache
		// directory) ever finished.
		data, ok = s.cfg.Store.Get(core.ServeCellKey(scaleName, seed, key))
	}
	if !ok {
		httpError(w, http.StatusNotFound,
			"no completed cell %q at scale=%s seed=%d (cells appear once their campaign finishes; ?scale=/?seed= select non-default runs)",
			key, scaleName, seed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// cellScope resolves the (scale, seed) query parameters shared by the
// /cells result and diag lookups, writing the 400 itself on a bad seed.
func (s *Server) cellScope(w http.ResponseWriter, r *http.Request) (scaleName string, seed int64, ok bool) {
	scaleName = s.cfg.Scale.Name
	if q := r.URL.Query().Get("scale"); q != "" {
		scaleName = q
	}
	seed = s.cfg.Seed
	if q := r.URL.Query().Get("seed"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad seed %q", q)
			return "", 0, false
		}
		seed = v
	}
	return scaleName, seed, true
}

// serveCellDiag serves GET /cells/{key}/diag: the cell's flight-recorder
// artifact, exactly the bytes `vcabench -diag-out` writes for the same
// cell. Like result lookups, misses fall back to the persistent store's
// servediag/ namespace.
func (s *Server) serveCellDiag(w http.ResponseWriter, r *http.Request, key string) {
	scaleName, seed, ok := s.cellScope(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	data, ok := s.diags[cellIndexKey(scaleName, seed, key)]
	s.mu.Unlock()
	if !ok && s.cfg.Store != nil {
		data, ok = s.cfg.Store.Get(core.ServeDiagKey(scaleName, seed, key))
	}
	if !ok {
		httpError(w, http.StatusNotFound,
			"no diagnostics for cell %q at scale=%s seed=%d (the daemon must run with -diag, and the cell's campaign must have finished)",
			key, scaleName, seed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// unitRequest is the POST /units body: one campaign cell to execute on
// behalf of a distributed-campaign coordinator. Spec stays raw so the
// campaign parser's strict decoding applies verbatim.
type unitRequest struct {
	Spec  json.RawMessage `json:"spec"`
	Scale string          `json:"scale,omitempty"`
	Seed  *int64          `json:"seed,omitempty"`
	Key   string          `json:"key"`
	// Diag mirrors core.UnitRequest.Diag: arm the flight recorder for
	// this unit so the returned cell carries the same Diag document a
	// local diagnostics-armed run would compute.
	Diag bool `json:"diag,omitempty"`
}

// handleUnit runs one campaign cell through the engine and returns its
// canonical cell encoding. Unit executions share the campaign
// semaphore, so a fleet coordinator cannot oversubscribe a worker that
// is also serving whole campaigns; the per-request testbed shares the
// persistent store, so repeated cells (any coordinator, any campaign,
// this daemon's own jobs) cost one disk read.
func (s *Server) handleUnit(w http.ResponseWriter, r *http.Request) {
	var req unitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Key == "" {
		httpError(w, http.StatusBadRequest, "request needs a \"key\" field naming a cell")
		return
	}
	spec, sc, seed, err := s.resolveSubmission(req.Spec, req.Scale, req.Seed)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Respect the coordinator's patience: a pool whose request timeout
	// expires closes the connection and fails the unit over, so a
	// handler still queued on the semaphore (or about to compute) must
	// not burn a slot on a multi-minute cell nobody will read.
	select {
	case s.sem <- struct{}{}:
	case <-r.Context().Done():
		httpError(w, http.StatusServiceUnavailable, "client went away while queued")
		return
	}
	defer func() { <-s.sem }()
	if r.Context().Err() != nil {
		httpError(w, http.StatusServiceUnavailable, "client went away while queued")
		return
	}

	data, err := s.runUnit(spec, sc, seed, req.Key, req.Diag)
	if err != nil {
		code := http.StatusBadRequest
		if _, panicked := err.(unitPanicError); panicked {
			code = http.StatusInternalServerError
		}
		httpError(w, code, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// unitPanicError marks engine panics, which map to 500 rather than the
// 400 a bad spec or unknown key earns.
type unitPanicError struct{ msg string }

func (e unitPanicError) Error() string { return e.msg }

// runUnit executes one cell on a fresh testbed, converting engine
// panics into errors so a pathological unit cannot take down the
// daemon (the coordinator computes such a unit locally instead).
func (s *Server) runUnit(spec core.Campaign, sc core.Scale, seed int64, key string, diagOn bool) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = unitPanicError{msg: fmt.Sprintf("unit panicked: %v", r)}
		}
	}()
	tb := core.NewTestbed(seed)
	if s.cfg.Store != nil {
		tb.WithStore(s.cfg.Store)
	}
	if s.tel != nil {
		tb.WithTelemetry(s.tel)
	}
	if diagOn {
		// The coordinator is diagnostics-armed; matching its mode keys
		// this unit into the diag half of the store and attaches the
		// Diag document the returned encoding must carry.
		tb.WithDiagnostics()
	}
	data, err = core.RunCampaignUnit(tb, spec, sc, key)
	if err == nil && s.mUnits != nil {
		s.mUnits.Inc()
	}
	return data, err
}

// health is the GET /healthz document.
type health struct {
	Status string       `json:"status"`
	Jobs   int          `json:"jobs"`
	Store  *store.Stats `json:"store,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	h := health{Status: "ok", Jobs: n}
	if ss, ok := s.cfg.Store.(interface{ Stats() store.Stats }); ok {
		st := ss.Stats()
		h.Store = &st
	}
	writeJSON(w, http.StatusOK, h)
}

// Jobs returns the IDs of all submitted campaigns, for debugging and
// tests, sorted so identical job sets always list identically.
func (s *Server) Jobs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Wait blocks until the given job finishes (done or failed); it
// returns false for an unknown id. Used by tests and graceful paths.
func (s *Server) Wait(id string) bool {
	j, ok := s.lookup(id)
	if !ok {
		return false
	}
	<-j.done
	return true
}

// DrainJobs blocks until every submitted campaign has reached a
// terminal state — the shutdown path of cmd/vcabenchd: stop the
// listener first (no new submissions), then drain, so an operator's
// SIGTERM never kills a client's campaign mid-run. Unit executions
// (POST /units) drain with the HTTP server itself, since their
// responses are synchronous.
func (s *Server) DrainJobs() {
	s.mu.Lock()
	pending := make([]*job, 0, len(s.jobs))
	//vcalint:ignore maprange wait barrier; every job is awaited exactly once and nothing is emitted
	for _, j := range s.jobs {
		pending = append(pending, j)
	}
	s.mu.Unlock()
	for _, j := range pending {
		<-j.done
	}
}

// Describe summarizes the server configuration for startup logs.
func (s *Server) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scale=%s seed=%d workers=%d max-runs=%d",
		s.cfg.Scale.Name, s.cfg.Seed, s.cfg.Workers, cap(s.sem))
	if s.cfg.Diagnostics {
		b.WriteString(" diag=on")
	}
	if st, ok := s.cfg.Store.(*store.Store); ok {
		fmt.Fprintf(&b, " cache=%s", st.Dir())
	}
	return b.String()
}
