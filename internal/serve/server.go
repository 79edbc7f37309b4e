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
//	                             ?scale= and ?seed= select others. The
//	                             answer is the cell of the job that
//	                             finished last with that key at that
//	                             (scale, seed): retained jobs are asked
//	                             newest-finished first, then the
//	                             persistent store, which jobs write in
//	                             the order they finish. So memory and
//	                             store serve the same bytes, and cells
//	                             survive daemon restarts and job
//	                             eviction.
//	GET  /cells/{key}/diag     → the cell's sim-time flight-recorder
//	                             artifact (see internal/diag), when the
//	                             server runs with Config.Diagnostics;
//	                             byte-identical to what `vcabench
//	                             -diag-out` writes for the same cell.
//	                             The whole key is tried as a cell first,
//	                             so a cell whose key ends in "/diag" is
//	                             still served.
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
	// Beyond it the oldest finished job — its result and rendered
	// cell documents — is dropped; resubmitting its spec re-runs it,
	// served warm from the store. Queued and running jobs are never
	// evicted.
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
// unset. Results and rendered cells live in memory; without a bound,
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

	// tail serialises each job's persist-and-finish tail, so the store
	// receives rendered documents in the order jobs finish.
	tail sync.Mutex

	mu       sync.Mutex
	jobs     map[string]*job
	finished []*job // finished jobs, oldest first
}

// job is one submitted campaign execution.
type job struct {
	id        string
	name      string
	scaleName string
	seed      int64
	spec      core.Campaign

	status string // "queued" | "running" | "done" | "failed"
	errMsg string
	result []byte // WriteJSON bytes of the CampaignResult
	cells  int
	// docs maps a store key (core.ServeCellKey, core.ServeDiagKey) to
	// the rendered document this job produced under it.
	docs map[string][]byte
	done chan struct{} // closed on done/failed
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
		cfg:  cfg,
		sem:  make(chan struct{}, cfg.MaxRuns),
		jobs: make(map[string]*job),
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

// decode reads a request body strictly (unknown fields and trailing
// data are errors), writing the 400 itself.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// resolve applies the daemon defaults to a request's raw spec, scale
// name and optional seed — shared by the campaign and unit endpoints
// so the two halves of the API cannot drift. Errors map to 400.
func (s *Server) resolve(req submitRequest) (core.Campaign, core.Scale, int64, error) {
	if len(req.Spec) == 0 {
		return core.Campaign{}, core.Scale{}, 0, fmt.Errorf("request needs a \"spec\" field holding a campaign")
	}
	spec, err := core.ParseCampaign(req.Spec)
	if err != nil {
		return core.Campaign{}, core.Scale{}, 0, err
	}
	sc := s.cfg.Scale
	if req.Scale != "" {
		var ok bool
		if sc, ok = core.ScaleByName(req.Scale); !ok {
			return core.Campaign{}, core.Scale{}, 0, fmt.Errorf("unknown scale %q (want tiny, quick or paper)", req.Scale)
		}
	}
	sd := s.cfg.Seed
	if req.Seed != nil {
		sd = *req.Seed
	}
	return spec, sc, sd, nil
}

// testbed builds the testbed every campaign and unit runs on: the
// server's worker count, store and telemetry, plus the flight recorder
// when diagOn.
func (s *Server) testbed(seed int64, diagOn bool) *core.Testbed {
	tb := core.NewTestbed(seed).SetParallelism(s.cfg.Workers)
	if s.cfg.Store != nil {
		tb.WithStore(s.cfg.Store)
	}
	if s.tel != nil {
		tb.WithTelemetry(s.tel)
	}
	if diagOn {
		tb.WithDiagnostics()
	}
	return tb
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !decode(w, r, &req) {
		return
	}
	spec, sc, seed, err := s.resolve(req)
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

	result, cells, docs, err := s.execute(j, sc)

	// Persist the rendered documents before the job turns "done": once
	// a poller sees the terminal status, every cell must be servable —
	// from memory while the job is retained, from the store after a
	// restart or eviction. Persisting and finishing under one lock
	// makes the job that finished last with a key its last writer in
	// the store too, and eviction drops the oldest-finished job first,
	// so memory and store serve the same bytes at every moment. A
	// document is written only when the store lacks it or holds other
	// bytes: a warm rerun makes zero Puts (the Get is absorbed by the
	// store's LRU). A failed Put leaves the store an older answer, or
	// none, for after eviction.
	s.tail.Lock()
	defer s.tail.Unlock()
	index := make(map[string][]byte, len(docs))
	for _, d := range docs {
		index[d.key] = d.data
		if s.cfg.Store != nil {
			if old, ok := s.cfg.Store.Get(d.key); !ok || !bytes.Equal(old, d.data) {
				s.cfg.Store.Put(d.key, d.data)
			}
		}
	}
	s.mu.Lock()
	if err != nil {
		j.status, j.errMsg = "failed", err.Error()
	} else {
		j.status, j.result, j.cells, j.docs = "done", result, cells, index
	}
	s.finish(j)
	s.mu.Unlock()
	close(j.done)
}

// doc is one rendered document a job serves, under its store key.
type doc struct {
	key  string
	data []byte
}

// execute runs a job's campaign and renders its result document, one
// JSON document per cell and, when armed, one flight-recorder artifact
// per cell. The engine panics on internal invariant violations; this
// goroutine, unlike an http handler's, would otherwise take the whole
// daemon (and every other client's jobs) down with it, so a panic
// becomes the job's error.
func (s *Server) execute(j *job, sc core.Scale) (result []byte, cells int, docs []doc, err error) {
	defer func() {
		if r := recover(); r != nil {
			docs, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	tb := s.testbed(j.seed, s.cfg.Diagnostics)
	res, err := core.RunCampaign(tb, j.spec, sc)
	if err != nil {
		return nil, 0, nil, err
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, res); err != nil {
		return nil, 0, nil, fmt.Errorf("encode result: %w", err)
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		var cb bytes.Buffer
		if report.WriteJSON(&cb, c) == nil {
			docs = append(docs, doc{core.ServeCellKey(j.scaleName, j.seed, c.Key), cb.Bytes()})
		}
	}
	for _, d := range tb.DiagResults() {
		if data, err := diag.Encode(d); err == nil {
			docs = append(docs, doc{core.ServeDiagKey(j.scaleName, j.seed, d.Key), data})
		}
	}
	return buf.Bytes(), len(res.Cells), docs, nil
}

// finish records a terminal job and evicts the oldest finished jobs
// beyond MaxJobs, with their results and rendered documents (the
// persistent store still holds every document, so /cells falls back to
// it and a resubmission re-runs warm). "Oldest" is by completion, not
// submission: evicting in submission order would drop a slow job the
// moment it finishes, and its poller would get a 404 for a result it
// never saw. Caller holds s.mu.
func (s *Server) finish(j *job) {
	s.finished = append(s.finished, j)
	for len(s.finished) > s.cfg.MaxJobs {
		delete(s.jobs, s.finished[0].id)
		s.finished[0] = nil // let the evicted job's documents go
		s.finished = s.finished[1:]
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

// handleCell serves GET /cells/{key} and GET /cells/{key}/diag. The
// {key...} wildcard swallows the whole remaining path, so the whole key
// is tried as a cell first; only on a miss does a trailing "/diag"
// select the flight-recorder artifact of the cell it follows — exactly
// the bytes `vcabench -diag-out` writes for that cell.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	scaleName := s.cfg.Scale.Name
	if q := r.URL.Query().Get("scale"); q != "" {
		scaleName = q
	}
	seed := s.cfg.Seed
	if q := r.URL.Query().Get("seed"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad seed %q", q)
			return
		}
		seed = v
	}
	data, ok := s.rendered(core.ServeCellKey(scaleName, seed, key))
	base, isDiag := strings.CutSuffix(key, "/diag")
	if !ok && isDiag {
		data, ok = s.rendered(core.ServeDiagKey(scaleName, seed, base))
	}
	switch {
	case ok:
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case isDiag:
		httpError(w, http.StatusNotFound,
			"no diagnostics for cell %q at scale=%s seed=%d (the daemon must run with -diag, and the cell's campaign must have finished)",
			base, scaleName, seed)
	default:
		httpError(w, http.StatusNotFound,
			"no completed cell %q at scale=%s seed=%d (cells appear once their campaign finishes; ?scale=/?seed= select non-default runs)",
			key, scaleName, seed)
	}
}

// rendered returns the document under a store key (core.ServeCellKey or
// core.ServeDiagKey): the newest-finished retained job's, else the
// store's, which holds every document this daemon (or a predecessor
// sharing the cache directory) ever finished.
func (s *Server) rendered(key string) ([]byte, bool) {
	s.mu.Lock()
	for i := len(s.finished) - 1; i >= 0; i-- {
		if data, ok := s.finished[i].docs[key]; ok {
			s.mu.Unlock()
			return data, true
		}
	}
	s.mu.Unlock()
	if s.cfg.Store == nil {
		return nil, false
	}
	return s.cfg.Store.Get(key)
}

// unitRequest is the POST /units body: one campaign cell to execute on
// behalf of a distributed-campaign coordinator, named by Key within the
// campaign, scale and seed a submitRequest carries.
type unitRequest struct {
	submitRequest
	Key string `json:"key"`
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
	if !decode(w, r, &req) {
		return
	}
	if req.Key == "" {
		httpError(w, http.StatusBadRequest, "request needs a \"key\" field naming a cell")
		return
	}
	spec, sc, seed, err := s.resolve(req.submitRequest)
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
// daemon (the coordinator computes such a unit locally instead). A
// diagnostics-armed coordinator sets diagOn: matching its mode keys
// this unit into the diag half of the store and attaches the Diag
// document the returned encoding must carry.
func (s *Server) runUnit(spec core.Campaign, sc core.Scale, seed int64, key string, diagOn bool) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = unitPanicError{msg: fmt.Sprintf("unit panicked: %v", r)}
		}
	}()
	data, err = core.RunCampaignUnit(s.testbed(seed, diagOn), spec, sc, key)
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
