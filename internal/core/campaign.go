package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/obs"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/report"
	"github.com/vcabench/vcabench/internal/simnet"
	"github.com/vcabench/vcabench/internal/stats"
	"github.com/vcabench/vcabench/internal/trace"
)

// This file is the campaign-matrix engine: the paper's evaluation is a
// systematic sweep over platforms × geometries × motion classes ×
// session sizes × network conditions, and this engine makes those
// sweeps *data* instead of code. A Campaign declares one value list per
// axis; the engine expands the cross product into canonical-keyed
// units, shards them through the scheduler (scheduler.go), and
// aggregates typed, JSON-encodable results. The Figs 12-18 sweeps, the
// §6 extensions and Table 1's measured columns all run on it, as do
// arbitrary grids the paper never measured (see examples/campaign).

// Campaign declares a QoE sweep as a grid of axis values. Every axis
// left empty is normalized to a single-value default, so the smallest
// valid spec is just a name. The cross product of all axes is the
// campaign's cell set.
//
// Cell unit keys are canonical: "<name>/" followed by one segment per
// axis that has more than one value, in the fixed order platform,
// geometry, motion, size, cap, audio, netem, trace. Single-valued axes
// are omitted so that, e.g., the Fig 17 campaign's cells keep their
// historical "fig17/<platform>/<motion>/<cap>" keys. Because shard
// seeds derive from unit keys, adding a second value to an axis changes
// every cell's key and therefore its sampled values — append new
// campaigns rather than widening old ones when stability matters.
type Campaign struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Platforms lists platform kinds ("zoom", "webex", "meet") or
	// variants ("webex@paid-tier", "meet@single-relay", "zoom@no-lb",
	// "zoom@relay"). Default: the three calibrated platforms.
	Platforms []string `json:"platforms,omitempty"`
	// Geometries lists host/receiver placements. Default: a US-East
	// host with receivers drawn from the paper's US pool.
	Geometries []Geometry `json:"geometries,omitempty"`
	// Motions lists feed classes ("low-motion", "high-motion").
	// Default: high-motion.
	Motions []string `json:"motions,omitempty"`
	// Sizes lists session sizes, host included (N >= 2). Default: 2.
	Sizes []int `json:"sizes,omitempty"`
	// CapsBps lists downlink caps in bits/s; 0 means uncapped.
	// Default: 0.
	CapsBps []int64 `json:"caps_bps,omitempty"`
	// Audio toggles speech + MOS-LQO scoring. Default: false.
	Audio []bool `json:"audio,omitempty"`
	// Netem lists receiver last-mile impairments. Default: none.
	Netem []Netem `json:"netem,omitempty"`
	// Traces lists time-varying downlink impairment schedules replayed
	// over each session (see internal/trace): explicit step lists or
	// square/sawtooth/step-down generators. Default: no trace. Cells
	// with an active trace also record a rate-over-time series. Traces
	// cannot combine with active netem conditions — encode loss and
	// caps in the trace steps instead.
	Traces []trace.Spec `json:"traces,omitempty"`
	// Repeats is the seed-replication factor: every cell runs Repeats
	// times, each replica an independent "<cellKey>/rep=K" unit with its
	// own key-derived seed, and the cell's metrics aggregate across
	// replicas (mean, stderr, 95% CI over replica means; see Metric).
	// 0 means unset and normalizes to 1 — a single-run campaign whose
	// keys and output are identical to a spec without the field.
	// Negative values and values above MaxRepeats are rejected.
	Repeats int `json:"repeats,omitempty"`
}

// MaxRepeats bounds the Repeats axis. The limit keeps a typo'd spec
// from expanding a campaign into millions of units; genuinely larger
// studies should shard across campaigns instead.
const MaxRepeats = 1000

// Geometry places one campaign cell's session: a host region plus a
// receiver pool. Exactly one of Zone or Receivers must be set; the
// pool is cycled to fill N-1 receiver slots, so one geometry serves
// every session size on the Sizes axis.
type Geometry struct {
	// Name labels the geometry in unit keys and results. Defaults to
	// Host when the axis has a single entry.
	Name string `json:"name,omitempty"`
	// Host is the sender's region name (geo.Lookup).
	Host string `json:"host"`
	// Zone draws receivers from the paper's §4.3 pool for "US" or "EU".
	Zone string `json:"zone,omitempty"`
	// Receivers is an explicit region-name pool, cycled in order.
	// Mixing zones here builds geometries the paper never measured.
	Receivers []string `json:"receivers,omitempty"`
}

// Netem is one receiver-side last-mile condition: random downlink
// loss, a steady downlink cap overriding the CapsBps axis, or a cap
// fluctuating between two rates (the §6 last-mile extension). Loss
// composes with either cap mode; the two cap modes are exclusive.
//
//vcalint:ignore floatfmt input-side spec decoded from JSON, which cannot encode NaN or infinities
type Netem struct {
	// Name labels the condition in unit keys and results.
	Name string `json:"name,omitempty"`
	// LossPct is a random downlink drop percentage in [0, 100).
	LossPct float64 `json:"loss_pct,omitempty"`
	// DownCapBps, when > 0, replaces the cell's CapsBps value.
	DownCapBps int64 `json:"down_cap_bps,omitempty"`
	// FluctHiBps/FluctLoBps/FluctPeriodSec alternate the downlink cap
	// between two rates every period (all three required together).
	FluctHiBps     int64   `json:"fluct_hi_bps,omitempty"`
	FluctLoBps     int64   `json:"fluct_lo_bps,omitempty"`
	FluctPeriodSec float64 `json:"fluct_period_sec,omitempty"`
}

// fluctuating reports whether the condition toggles the downlink cap.
func (ne Netem) fluctuating() bool { return ne.FluctHiBps > 0 }

// ParseCampaign decodes and validates a JSON campaign spec.
func ParseCampaign(data []byte) (Campaign, error) {
	var c Campaign
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Campaign{}, fmt.Errorf("campaign: parse: %w", err)
	}
	// A spec file is exactly one JSON object; trailing data means a
	// corrupted or concatenated file, not a campaign to silently drop.
	if dec.More() {
		return Campaign{}, fmt.Errorf("campaign: parse: trailing data after the spec object")
	}
	if _, err := c.resolve(); err != nil {
		return Campaign{}, err
	}
	return c, nil
}

// Validate checks the spec without running it.
func (c Campaign) Validate() error {
	_, err := c.resolve()
	return err
}

// UnitKeys returns the canonical key of every schedulable unit in
// expansion order: one key per cell for a single-run campaign, and
// Repeats consecutive "<cellKey>/rep=K" keys per cell for a replicated
// one (cell-major, replicas innermost).
func (c Campaign) UnitKeys() ([]string, error) {
	rc, err := c.resolve()
	if err != nil {
		return nil, err
	}
	cells := rc.cells()
	keys := make([]string, 0, len(cells)*rc.repeats)
	for _, cl := range cells {
		keys = append(keys, rc.unitKeys(cl)...)
	}
	return keys, nil
}

// replicaKey appends the replica segment to a cell's canonical key.
// Replicas are ordinary units: the key derives the shard seed, names
// the store entry and routes the unit across the worker fleet, so
// each replica is computed once and distributed like any other cell.
func replicaKey(cellKey string, k int) string {
	return fmt.Sprintf("%s/rep=%d", cellKey, k)
}

// unitKeys expands one cell into its schedulable unit keys. A
// single-run campaign keeps the bare cell key — no "rep=0" segment —
// so Repeats: 1 campaigns share stored units with historical runs.
func (rc *resolvedCampaign) unitKeys(c campaignCell) []string {
	if rc.repeats <= 1 {
		return []string{c.key}
	}
	out := make([]string, rc.repeats)
	for k := range out {
		out[k] = replicaKey(c.key, k)
	}
	return out
}

// resolvedGeometry is a Geometry with regions looked up.
type resolvedGeometry struct {
	name     string
	host     geo.Region
	zone     geo.Zone     // valid when explicit is nil
	explicit []geo.Region // non-nil: cycled receiver pool
}

// receivers returns n receiver placements from the geometry's pool.
func (g resolvedGeometry) receivers(n int) []geo.Region {
	if g.explicit == nil {
		return QoEReceiverRegions(g.zone, n)
	}
	out := make([]geo.Region, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.explicit[i%len(g.explicit)])
	}
	return out
}

// resolvedTrace is one Traces-axis value with its schedule expanded:
// the zero entry (no schedule) is the axis default. The expanded Trace
// participates in the campaign salt, so two same-named schedules with
// different steps never share persisted cells.
type resolvedTrace struct {
	name   string
	active bool
	tr     trace.Trace
}

// resolvedCampaign is a Campaign with defaults applied and every name
// resolved; its axis value lists are all non-empty.
type resolvedCampaign struct {
	name      string
	platforms []platform.Kind
	geoms     []resolvedGeometry
	motions   []media.MotionClass
	sizes     []int
	caps      []int64
	audio     []bool
	netem     []Netem
	traces    []resolvedTrace
	repeats   int
}

// campaignCell is one fully-specified grid point.
type campaignCell struct {
	kind   platform.Kind
	geom   resolvedGeometry
	motion media.MotionClass
	n      int
	capBps int64
	audio  bool
	netem  Netem
	trace  resolvedTrace
	key    string
}

func parseMotion(s string) (media.MotionClass, error) {
	switch s {
	case media.LowMotion.String():
		return media.LowMotion, nil
	case media.HighMotion.String():
		return media.HighMotion, nil
	}
	return 0, fmt.Errorf("campaign: unknown motion class %q (want %q or %q)",
		s, media.LowMotion, media.HighMotion)
}

func parseKind(s string) (platform.Kind, error) {
	if k := platform.Kind(s); k.Known() {
		return k, nil
	}
	return "", fmt.Errorf("campaign: unknown platform %q", s)
}

// resolve normalizes the spec: defaults fill empty axes, names resolve
// to regions, and every axis is checked for valid, duplicate-free
// values (duplicates would collide in the cell store).
func (c Campaign) resolve() (*resolvedCampaign, error) {
	if c.Name == "" {
		return nil, fmt.Errorf("campaign: name is required")
	}
	// "/" separates key segments; a name containing it could make two
	// distinct cells (or campaigns) share one canonical key, breaking
	// the key-injectivity the shard seeds and cell store rely on.
	if strings.Contains(c.Name, "/") {
		return nil, fmt.Errorf("campaign: name %q must not contain %q", c.Name, "/")
	}
	rc := &resolvedCampaign{name: c.Name}

	if len(c.Platforms) == 0 {
		rc.platforms = append(rc.platforms, platform.Kinds...)
	}
	for _, s := range c.Platforms {
		k, err := parseKind(s)
		if err != nil {
			return nil, err
		}
		rc.platforms = append(rc.platforms, k)
	}

	geoms := c.Geometries
	if len(geoms) == 0 {
		geoms = []Geometry{{Name: "us-east", Host: geo.USEast.Name, Zone: string(geo.ZoneUS)}}
	}
	for _, g := range geoms {
		res, err := resolveGeometry(g, len(geoms) > 1)
		if err != nil {
			return nil, err
		}
		rc.geoms = append(rc.geoms, res)
	}

	if len(c.Motions) == 0 {
		rc.motions = []media.MotionClass{media.HighMotion}
	}
	for _, s := range c.Motions {
		m, err := parseMotion(s)
		if err != nil {
			return nil, err
		}
		rc.motions = append(rc.motions, m)
	}

	rc.sizes = c.Sizes
	if len(rc.sizes) == 0 {
		rc.sizes = []int{2}
	}
	for _, n := range rc.sizes {
		if n < 2 {
			return nil, fmt.Errorf("campaign: size %d < 2 (sessions need a host and a receiver)", n)
		}
	}

	rc.caps = c.CapsBps
	if len(rc.caps) == 0 {
		rc.caps = []int64{0}
	}
	for _, cap := range rc.caps {
		if cap < 0 {
			return nil, fmt.Errorf("campaign: negative cap %d bps", cap)
		}
	}

	rc.audio = c.Audio
	if len(rc.audio) == 0 {
		rc.audio = []bool{false}
	}

	rc.netem = c.Netem
	if len(rc.netem) == 0 {
		rc.netem = []Netem{{}}
	}
	for i, ne := range rc.netem {
		if ne.Name == "" && len(rc.netem) > 1 {
			return nil, fmt.Errorf("campaign: netem entry %d needs a name (the axis has %d entries)", i, len(rc.netem))
		}
		if strings.Contains(ne.Name, "/") {
			return nil, fmt.Errorf("campaign: netem name %q must not contain %q", ne.Name, "/")
		}
		// Written to reject NaN too: a NaN loss would label the cell
		// lossy while dropping nothing.
		if !(ne.LossPct >= 0 && ne.LossPct < 100) {
			return nil, fmt.Errorf("campaign: netem %q loss_pct %.3g outside [0, 100)", ne.Name, ne.LossPct)
		}
		if math.IsNaN(ne.FluctPeriodSec) || math.IsInf(ne.FluctPeriodSec, 0) {
			return nil, fmt.Errorf("campaign: netem %q fluct_period_sec %.3g is not finite", ne.Name, ne.FluctPeriodSec)
		}
		if ne.DownCapBps < 0 {
			return nil, fmt.Errorf("campaign: netem %q negative down_cap_bps", ne.Name)
		}
		fluctFields := 0
		if ne.FluctHiBps > 0 {
			fluctFields++
		}
		if ne.FluctLoBps > 0 {
			fluctFields++
		}
		if ne.FluctPeriodSec > 0 {
			fluctFields++
		}
		if fluctFields != 0 && fluctFields != 3 {
			return nil, fmt.Errorf("campaign: netem %q needs fluct_hi_bps, fluct_lo_bps and fluct_period_sec together", ne.Name)
		}
		if ne.fluctuating() && ne.DownCapBps > 0 {
			return nil, fmt.Errorf("campaign: netem %q sets both a steady and a fluctuating cap", ne.Name)
		}
		if ne.fluctuating() && ne.FluctLoBps > ne.FluctHiBps {
			return nil, fmt.Errorf("campaign: netem %q fluct_lo_bps > fluct_hi_bps", ne.Name)
		}
		// The period must lower onto a schedule trace.Play accepts, or
		// the run panics when the cell's setup hook plays it.
		if ne.fluctuating() {
			if err := fluctTrace(ne).Validate(); err != nil {
				return nil, fmt.Errorf("campaign: netem %q: %w", ne.Name, err)
			}
		}
		// An active condition must be visible in results: CellResult
		// only records the condition's name, so an unnamed impairment
		// would make impaired cells look like clean runs.
		if ne.Name == "" && ne != (Netem{}) {
			return nil, fmt.Errorf("campaign: netem entry %d sets impairments and needs a name", i)
		}
	}

	specs := c.Traces
	if len(specs) == 0 {
		specs = []trace.Spec{{}}
	}
	for i, ts := range specs {
		rt := resolvedTrace{name: ts.Name, active: ts.Active()}
		if ts.Name == "" && len(specs) > 1 {
			return nil, fmt.Errorf("campaign: trace entry %d needs a name (the axis has %d entries)", i, len(specs))
		}
		// Like netem: an active schedule must be visible in results.
		if ts.Name == "" && rt.active {
			return nil, fmt.Errorf("campaign: trace entry %d sets a schedule and needs a name", i)
		}
		if strings.Contains(ts.Name, "/") {
			return nil, fmt.Errorf("campaign: trace name %q must not contain %q", ts.Name, "/")
		}
		if rt.active {
			tr, err := ts.Resolve()
			if err != nil {
				return nil, fmt.Errorf("campaign: %w", err)
			}
			rt.tr = tr
		}
		rc.traces = append(rc.traces, rt)
	}
	// A trace owns the receiver downlink while it plays; crossing it
	// with a netem cap or loss would leave two owners of the same
	// shaper state. Reject the grid rather than silently letting steps
	// stomp netem conditions.
	if anyActiveTrace(rc.traces) {
		for _, ne := range rc.netem {
			if ne.LossPct > 0 || ne.DownCapBps > 0 || ne.fluctuating() {
				return nil, fmt.Errorf("campaign: netem %q cannot combine with a trace axis; encode loss and caps in the trace steps", ne.Name)
			}
		}
	}

	rc.repeats = c.Repeats
	if rc.repeats == 0 {
		rc.repeats = 1
	}
	if rc.repeats < 0 {
		return nil, fmt.Errorf("campaign: repeats %d < 0", c.Repeats)
	}
	if rc.repeats > MaxRepeats {
		return nil, fmt.Errorf("campaign: repeats %d exceeds the limit of %d", c.Repeats, MaxRepeats)
	}

	// Duplicate axis values collide in the cell store: reject them.
	if err := uniqueSegments(rc); err != nil {
		return nil, err
	}
	return rc, nil
}

func anyActiveTrace(ts []resolvedTrace) bool {
	for _, t := range ts {
		if t.active {
			return true
		}
	}
	return false
}

func resolveGeometry(g Geometry, named bool) (resolvedGeometry, error) {
	var res resolvedGeometry
	if g.Host == "" {
		return res, fmt.Errorf("campaign: geometry %q has no host", g.Name)
	}
	host, err := geo.Lookup(g.Host)
	if err != nil {
		return res, fmt.Errorf("campaign: geometry %q: %w", g.Name, err)
	}
	res.host = host
	res.name = g.Name
	if res.name == "" {
		if named {
			return res, fmt.Errorf("campaign: every geometry needs a name when the axis has several")
		}
		res.name = g.Host
	}
	if strings.Contains(res.name, "/") {
		return res, fmt.Errorf("campaign: geometry name %q must not contain %q", res.name, "/")
	}
	switch {
	case g.Zone != "" && len(g.Receivers) > 0:
		return res, fmt.Errorf("campaign: geometry %q sets both zone and receivers", res.name)
	case g.Zone != "":
		if z := geo.Zone(g.Zone); z != geo.ZoneUS && z != geo.ZoneEU {
			return res, fmt.Errorf("campaign: geometry %q: unknown zone %q (want %q or %q)",
				res.name, g.Zone, geo.ZoneUS, geo.ZoneEU)
		}
		res.zone = geo.Zone(g.Zone)
	case len(g.Receivers) > 0:
		for _, name := range g.Receivers {
			r, err := geo.Lookup(name)
			if err != nil {
				return res, fmt.Errorf("campaign: geometry %q: %w", res.name, err)
			}
			res.explicit = append(res.explicit, r)
		}
	default:
		return res, fmt.Errorf("campaign: geometry %q needs a zone or a receiver list", res.name)
	}
	return res, nil
}

// uniqueSegments rejects axis values whose key segments repeat.
func uniqueSegments(rc *resolvedCampaign) error {
	check := func(axis string, segs []string) error {
		seen := make(map[string]bool, len(segs))
		for _, s := range segs {
			if seen[s] {
				return fmt.Errorf("campaign: duplicate %s %q", axis, s)
			}
			seen[s] = true
		}
		return nil
	}
	segs := func(n int, f func(i int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	if err := check("platform", segs(len(rc.platforms), func(i int) string { return string(rc.platforms[i]) })); err != nil {
		return err
	}
	if err := check("geometry name", segs(len(rc.geoms), func(i int) string { return rc.geoms[i].name })); err != nil {
		return err
	}
	if err := check("motion", segs(len(rc.motions), func(i int) string { return rc.motions[i].String() })); err != nil {
		return err
	}
	if err := check("size", segs(len(rc.sizes), func(i int) string { return strconv.Itoa(rc.sizes[i]) })); err != nil {
		return err
	}
	if err := check("cap", segs(len(rc.caps), func(i int) string { return strconv.FormatInt(rc.caps[i], 10) })); err != nil {
		return err
	}
	if err := check("audio value", segs(len(rc.audio), func(i int) string { return audioSegment(rc.audio[i]) })); err != nil {
		return err
	}
	if err := check("netem name", segs(len(rc.netem), func(i int) string { return rc.netem[i].Name })); err != nil {
		return err
	}
	return check("trace name", segs(len(rc.traces), func(i int) string { return rc.traces[i].name }))
}

func audioSegment(on bool) string {
	if on {
		return "audio"
	}
	return "noaudio"
}

// salt scopes persisted cells to the full resolved spec: single-valued
// axes never become key segments, so two same-named campaigns differing
// only there share unit keys but must not share stored cells. Equal
// resolved specs (fig12/fig14/fig15) produce equal salts and keep
// sharing across processes — and across machines, since the worker
// side of distributed execution (RunCampaignUnit) derives the same
// salt from the shipped spec.
//
// The salt hashes a JSON mirror of the resolved spec's values, so a
// name that reads like the fields after it cannot alias another spec.
func (rc *resolvedCampaign) salt() string {
	type geometry struct {
		Name     string
		Host     geo.Region
		Zone     geo.Zone
		Explicit []geo.Region
	}
	type schedule struct {
		Name   string
		Active bool
		Trace  trace.Trace
	}
	geoms := make([]geometry, len(rc.geoms))
	for i, g := range rc.geoms {
		geoms[i] = geometry{g.name, g.host, g.zone, g.explicit}
	}
	traces := make([]schedule, len(rc.traces))
	for i, t := range rc.traces {
		traces[i] = schedule{t.name, t.active, t.tr}
	}
	return fingerprint(struct {
		Name       string
		Platforms  []platform.Kind
		Geometries []geometry
		Motions    []media.MotionClass
		Sizes      []int
		Caps       []int64
		Audio      []bool
		Netem      []Netem
		Traces     []schedule
		Repeats    int
	}{rc.name, rc.platforms, geoms, rc.motions, rc.sizes, rc.caps, rc.audio, rc.netem, traces, rc.repeats})
}

// cells expands the grid in canonical axis order. Expansion order only
// affects scheduling and result ordering — never values, which depend
// solely on each cell's key-derived seed.
func (rc *resolvedCampaign) cells() []campaignCell {
	var out []campaignCell
	for _, kind := range rc.platforms {
		for _, g := range rc.geoms {
			for _, m := range rc.motions {
				for _, n := range rc.sizes {
					for _, cap := range rc.caps {
						for _, audio := range rc.audio {
							for _, ne := range rc.netem {
								for _, rt := range rc.traces {
									cell := campaignCell{
										kind: kind, geom: g, motion: m, n: n,
										capBps: cap, audio: audio, netem: ne, trace: rt,
									}
									cell.key = rc.key(cell)
									out = append(out, cell)
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// key builds a cell's canonical unit key: the campaign name plus one
// segment per multi-valued axis, in fixed axis order.
func (rc *resolvedCampaign) key(c campaignCell) string {
	segs := []string{rc.name}
	if len(rc.platforms) > 1 {
		segs = append(segs, string(c.kind))
	}
	if len(rc.geoms) > 1 {
		segs = append(segs, c.geom.name)
	}
	if len(rc.motions) > 1 {
		segs = append(segs, c.motion.String())
	}
	if len(rc.sizes) > 1 {
		segs = append(segs, strconv.Itoa(c.n))
	}
	if len(rc.caps) > 1 {
		segs = append(segs, strconv.FormatInt(c.capBps, 10))
	}
	if len(rc.audio) > 1 {
		segs = append(segs, audioSegment(c.audio))
	}
	if len(rc.netem) > 1 {
		segs = append(segs, c.netem.Name)
	}
	if len(rc.traces) > 1 {
		segs = append(segs, c.trace.name)
	}
	return strings.Join(segs, "/")
}

// fluctTrace lowers a fluctuating netem condition onto the trace
// subsystem: a repeating square wave that starts high and toggles
// every period, carrying the condition's loss in every step (steps are
// absolute state, so an unmentioned loss would be cleared). Replayed
// whole-run from the setup hook, its event schedule is instant-for-
// instant identical to the Sim.Every toggle loop it replaced.
func fluctTrace(ne Netem) trace.Trace {
	period := time.Duration(ne.FluctPeriodSec * float64(time.Second))
	return trace.Trace{
		Name:      ne.Name,
		RepeatSec: (2 * period).Seconds(),
		Steps: []trace.Step{
			{AtSec: 0, DownCapBps: ne.FluctHiBps, LossPct: ne.LossPct},
			{AtSec: period.Seconds(), DownCapBps: ne.FluctLoBps, LossPct: ne.LossPct},
		},
	}
}

// runCell executes one grid point on its forked testbed, translating
// the cell's axes into the QoE study's options and last-mile setup.
func runCell(stb *Testbed, c campaignCell, sc Scale) *QoEStudyResult {
	opts := QoEOpts{DownlinkCapBps: c.capBps, WithAudio: c.audio}
	ne := c.netem
	if ne.DownCapBps > 0 {
		opts.DownlinkCapBps = ne.DownCapBps
	}
	if ne.fluctuating() {
		opts.DownlinkCapBps = ne.FluctHiBps
	}
	if c.trace.active {
		tr := c.trace.tr
		opts.Trace = &tr
	}
	var setup func([]*simnet.Node)
	if ne.LossPct > 0 || ne.fluctuating() {
		setup = func(recvNodes []*simnet.Node) {
			for _, n := range recvNodes {
				if ne.LossPct > 0 {
					n.SetDownlinkLoss(ne.LossPct / 100)
				}
				if ne.fluctuating() {
					trace.Play(stb.Sim, n, fluctTrace(ne), shaperBurst, stb.traceProbe())
				}
			}
		}
	}
	return RunQoEStudyWithSetup(stb, c.kind, c.geom.host, c.geom.receivers(c.n-1),
		c.motion, sc, opts, setup)
}

// Metric summarizes one sample of a cell result. A nil Metric (absent
// in JSON) means the cell collected no observations for that signal —
// e.g. MOS with audio off — never a zero-filled summary.
//
// On the aggregated metrics of a replicated cell (Campaign.Repeats > 1)
// the summary pools every replica's observations (N counts the pooled
// total) and the replication fields are set: Reps is the number of
// replicas that contributed data, and StdErr/CI95 are the standard
// error and 95% confidence half-width of the mean computed over the
// per-replica means (stats.Sample.StdErr/CI95 — a z-interval, see
// there for the formula). Both pointers are nil when the spread is
// undefined (fewer than two contributing replicas), mirroring the nil-
// Metric contract: absent, never NaN, rendered "-".
//
//vcalint:ignore floatfmt summaries of a non-empty stats.Sample are finite by construction; absence is the nil *Metric, NaN spreads are the nil pointers
type Metric struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	P25  float64 `json:"p25"`
	P50  float64 `json:"p50"`
	P75  float64 `json:"p75"`
	Max  float64 `json:"max"`

	Reps   int      `json:"reps,omitempty"`
	StdErr *float64 `json:"stderr,omitempty"`
	CI95   *float64 `json:"ci95,omitempty"`
}

func metricOf(s *stats.Sample) *Metric {
	if s == nil || s.Len() == 0 {
		return nil
	}
	sum := s.Summarize()
	return &Metric{
		N:    sum.N,
		Mean: sum.Mean,
		Min:  sum.Min,
		P25:  sum.P25,
		P50:  sum.P50,
		P75:  sum.P75,
		Max:  sum.Max,
	}
}

// replicatedMetric aggregates one signal across a cell's replicas:
// observations pool into the headline summary, and the replication
// fields come from the per-replica means. Replicas with no data for
// the signal — nil, empty, or all-NaN samples — are skipped rather
// than poisoning the aggregate; nil when no replica contributed.
func replicatedMetric(samples []*stats.Sample) *Metric {
	pooled := &stats.Sample{}
	means := &stats.Sample{}
	for _, s := range samples {
		if s == nil || s.Len() == 0 {
			continue
		}
		rep := stats.NewSample(s.Len())
		for _, x := range s.Values() {
			if !math.IsNaN(x) {
				rep.Add(x)
			}
		}
		if rep.Len() == 0 {
			continue
		}
		pooled.AddAll(rep.Values())
		means.Add(rep.Mean())
	}
	m := metricOf(pooled)
	if m == nil {
		return nil
	}
	m.Reps = means.Len()
	if se := means.StdErr(); !math.IsNaN(se) {
		ci := means.CI95()
		m.StdErr = &se
		m.CI95 = &ci
	}
	return m
}

// metricSlots pairs each QoE signal's sample with its Metric field on
// CellResult and CellReplica, so single-run and replicated cells fill
// every signal through one loop.
var metricSlots = []struct {
	sample func(*QoEStudyResult) *stats.Sample
	cell   func(*CellResult) **Metric
	rep    func(*CellReplica) **Metric
}{
	{func(q *QoEStudyResult) *stats.Sample { return q.PSNR }, func(c *CellResult) **Metric { return &c.PSNR }, func(r *CellReplica) **Metric { return &r.PSNR }},
	{func(q *QoEStudyResult) *stats.Sample { return q.SSIM }, func(c *CellResult) **Metric { return &c.SSIM }, func(r *CellReplica) **Metric { return &r.SSIM }},
	{func(q *QoEStudyResult) *stats.Sample { return q.VIFP }, func(c *CellResult) **Metric { return &c.VIFP }, func(r *CellReplica) **Metric { return &r.VIFP }},
	{func(q *QoEStudyResult) *stats.Sample { return q.Freeze }, func(c *CellResult) **Metric { return &c.Freeze }, func(r *CellReplica) **Metric { return &r.Freeze }},
	{func(q *QoEStudyResult) *stats.Sample { return q.UpMbps }, func(c *CellResult) **Metric { return &c.UpMbps }, func(r *CellReplica) **Metric { return &r.UpMbps }},
	{func(q *QoEStudyResult) *stats.Sample { return q.DownMbps }, func(c *CellResult) **Metric { return &c.DownMbps }, func(r *CellReplica) **Metric { return &r.DownMbps }},
	{func(q *QoEStudyResult) *stats.Sample { return q.MOS }, func(c *CellResult) **Metric { return &c.MOS }, func(r *CellReplica) **Metric { return &r.MOS }},
}

// CellResult is one grid point's outcome: its axis coordinates, the
// canonical unit key (which names the store entry and derives the shard
// seed), and summarized QoE metrics. Raw retains the full study result
// for library callers; it is not serialized.
type CellResult struct {
	Key      string `json:"key"`
	Platform string `json:"platform"`
	Geometry string `json:"geometry"`
	Motion   string `json:"motion"`
	N        int    `json:"n"`
	CapBps   int64  `json:"cap_bps"`
	Audio    bool   `json:"audio"`
	Netem    string `json:"netem,omitempty"`
	Trace    string `json:"trace,omitempty"`

	PSNR     *Metric `json:"psnr,omitempty"`
	SSIM     *Metric `json:"ssim,omitempty"`
	VIFP     *Metric `json:"vifp,omitempty"`
	Freeze   *Metric `json:"freeze,omitempty"`
	UpMbps   *Metric `json:"up_mbps,omitempty"`
	DownMbps *Metric `json:"down_mbps,omitempty"`
	MOS      *Metric `json:"mos,omitempty"`

	// DropsQueue / DropsRandom total the cell's access-pipe drops by
	// cause (simnet.PipeStats split) — present only when the campaign
	// ran with diagnostics armed, so bare runs stay byte-identical to
	// pre-diagnostics output. For a replicated cell they report the
	// first replica's totals (the same replica Raw retains).
	DropsQueue  int64 `json:"drops_queue,omitempty"`
	DropsRandom int64 `json:"drops_random,omitempty"`

	// RateOverTime is the mean per-receiver downlink rate over session
	// time — present only for trace-driven cells, where it makes each
	// platform's disturbance response and recovery inspectable. For a
	// replicated cell the series is the bin-wise mean across replicas.
	RateOverTime []RatePoint `json:"rate_over_time,omitempty"`

	// Replicas holds each replica's own metric summaries, in replica
	// order — present only for replicated cells (Campaign.Repeats > 1),
	// where it exposes the per-run values behind the aggregated ±CI.
	Replicas []CellReplica `json:"replicas,omitempty"`

	// Raw retains the full study result (the first replica's, for
	// replicated cells); it is not serialized.
	Raw *QoEStudyResult `json:"-"`
}

// CellReplica is one replica's view of a replicated cell: its unit key
// ("<cellKey>/rep=K") and per-signal summaries. Replica metrics never
// carry replication fields — there is nothing to aggregate within one
// run.
type CellReplica struct {
	Key      string  `json:"key"`
	PSNR     *Metric `json:"psnr,omitempty"`
	SSIM     *Metric `json:"ssim,omitempty"`
	VIFP     *Metric `json:"vifp,omitempty"`
	Freeze   *Metric `json:"freeze,omitempty"`
	UpMbps   *Metric `json:"up_mbps,omitempty"`
	DownMbps *Metric `json:"down_mbps,omitempty"`
	MOS      *Metric `json:"mos,omitempty"`
}

// RatePoint is one bin of a cell's rate-over-time series.
//
//vcalint:ignore floatfmt bin offsets and mean rates are finite by construction (finite bin width, finite byte counts)
type RatePoint struct {
	// AtSec is the bin's start offset from session start, in seconds.
	AtSec float64 `json:"at_sec"`
	// DownMbps is the mean per-receiver downlink rate in the bin.
	DownMbps float64 `json:"down_mbps"`
}

// ratePoints converts a study's binned series into JSON-able points.
func ratePoints(q *QoEStudyResult) []RatePoint {
	if len(q.RateOverTime) == 0 {
		return nil
	}
	out := make([]RatePoint, len(q.RateOverTime))
	for i, v := range q.RateOverTime {
		out[i] = RatePoint{AtSec: float64(i) * q.RateBin.Seconds(), DownMbps: v}
	}
	return out
}

// meanRatePoints averages the replicas' rate-over-time series bin by
// bin. All replicas of a cell share the bin width; should their series
// lengths differ (sessions ending mid-bin), each bin averages only the
// replicas that recorded it.
func meanRatePoints(qs []*QoEStudyResult) []RatePoint {
	maxLen := 0
	for _, q := range qs {
		if len(q.RateOverTime) > maxLen {
			maxLen = len(q.RateOverTime)
		}
	}
	if maxLen == 0 {
		return nil
	}
	bin := qs[0].RateBin.Seconds()
	out := make([]RatePoint, maxLen)
	for i := range out {
		sum, n := 0.0, 0
		for _, q := range qs {
			if i < len(q.RateOverTime) {
				sum += q.RateOverTime[i]
				n++
			}
		}
		out[i] = RatePoint{AtSec: float64(i) * bin, DownMbps: sum / float64(n)}
	}
	return out
}

// CampaignResult aggregates a campaign run. Cells appear in expansion
// order; for a given spec, scale and seed the JSON encoding is
// byte-identical at any worker count.
type CampaignResult struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Scale       string `json:"scale"`
	Seed        int64  `json:"seed"`
	// Repeats is the replication factor, recorded only when it exceeds
	// 1 so that single-run results stay byte-identical to pre-
	// replication output.
	Repeats int          `json:"repeats,omitempty"`
	Cells   []CellResult `json:"cells"`
}

// Cell returns the cell with the given canonical unit key, or nil.
func (r *CampaignResult) Cell(key string) *CellResult {
	for i := range r.Cells {
		if r.Cells[i].Key == key {
			return &r.Cells[i]
		}
	}
	return nil
}

// mustCell is Cell for renderers whose keys come from their own spec.
func (r *CampaignResult) mustCell(key string) *CellResult {
	c := r.Cell(key)
	if c == nil {
		panic("core: campaign " + r.Name + " has no cell " + key)
	}
	return c
}

// RunCampaign expands the spec and executes every unit through the
// store-backed scheduler: each unit runs on a testbed forked from its
// canonical key, so results depend only on (seed, key) and campaigns
// sharing cell keys (fig12/fig14/fig15) share computed units. A
// replicated campaign (Repeats > 1) schedules Repeats independent
// replica units per cell — fanned across workers and persisted in the
// store exactly like cells — and aggregates them into each CellResult.
func RunCampaign(tb *Testbed, spec Campaign, sc Scale) (*CampaignResult, error) {
	rc, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	cells := rc.cells()
	reps := rc.repeats
	keys := make([]string, 0, len(cells)*reps)
	for _, c := range cells {
		keys = append(keys, rc.unitKeys(c)...)
	}
	// Trace the lifecycle: one campaign span, an envelope span per cell
	// (and per replica when replicated) whose extent derives from its
	// unit children, and the per-unit parent map runMemoized hangs unit
	// spans off. All observational — res never depends on tr.
	tr := tb.tracer()
	var campSpan obs.SpanID
	var parents map[string]obs.SpanID
	if tr != nil {
		campSpan = tr.Start(0, obs.TierCampaign, rc.name,
			obs.Label{Name: "scale", Value: sc.Name},
			obs.Label{Name: "cells", Value: strconv.Itoa(len(cells))},
			obs.Label{Name: "repeats", Value: strconv.Itoa(reps)})
		parents = make(map[string]obs.SpanID, len(keys))
		for _, c := range cells {
			cellSpan := tr.Open(campSpan, obs.TierCell, c.key)
			if reps == 1 {
				parents[c.key] = cellSpan
			} else {
				for k := 0; k < reps; k++ {
					rk := replicaKey(c.key, k)
					parents[rk] = tr.Open(cellSpan, obs.TierReplica, rk)
				}
			}
		}
	}
	// The remote tier (nil without a dispatcher) offers units the store
	// doesn't hold to the worker fleet; unserved units fall
	// back to the local scheduler below, so fleet topology and failures
	// never reach the merged result. Unit i belongs to cell i/reps
	// (cell-major key layout); the cell's axes are shared by all its
	// replicas while the per-unit key alone differentiates their seeds.
	res := tb.runMemoized(sc, rc.salt(), keys, parents, func(stb *Testbed, i int) any {
		return runCell(stb, cells[i/reps], sc)
	}, tb.remoteRunner(spec, sc))
	tr.End(campSpan)
	out := &CampaignResult{
		Name:        spec.Name,
		Description: spec.Description,
		Scale:       sc.Name,
		Seed:        tb.Seed(),
		Cells:       make([]CellResult, len(cells)),
	}
	if reps > 1 {
		out.Repeats = reps
	}
	for i, c := range cells {
		cr := CellResult{
			Key:      c.key,
			Platform: string(c.kind),
			Geometry: c.geom.name,
			Motion:   c.motion.String(),
			N:        c.n,
			CapBps:   c.capBps,
			Audio:    c.audio,
			Netem:    c.netem.Name,
			Trace:    c.trace.name,
		}
		if reps == 1 {
			q := res[i].(*QoEStudyResult)
			for _, slot := range metricSlots {
				*slot.cell(&cr) = metricOf(slot.sample(q))
			}
			cr.RateOverTime = ratePoints(q)
			cr.Raw = q
			if q.Diag != nil {
				cr.DropsQueue = q.Diag.DropsQueue
				cr.DropsRandom = q.Diag.DropsRandom
				tb.diagAdd(q.Diag)
			}
		} else {
			qs := make([]*QoEStudyResult, reps)
			for k := range qs {
				qs[k] = res[i*reps+k].(*QoEStudyResult)
			}
			cr.Replicas = make([]CellReplica, reps)
			for k := range cr.Replicas {
				cr.Replicas[k].Key = replicaKey(c.key, k)
			}
			samples := make([]*stats.Sample, reps)
			for _, slot := range metricSlots {
				for k, q := range qs {
					samples[k] = slot.sample(q)
					*slot.rep(&cr.Replicas[k]) = metricOf(samples[k])
				}
				*slot.cell(&cr) = replicatedMetric(samples)
			}
			cr.RateOverTime = meanRatePoints(qs)
			cr.Raw = qs[0]
			// Each replica recorded under its own "<cellKey>/rep=K" key;
			// the cell-level drop totals mirror Raw's replica choice.
			for _, q := range qs {
				tb.diagAdd(q.Diag)
			}
			if qs[0].Diag != nil {
				cr.DropsQueue = qs[0].Diag.DropsQueue
				cr.DropsRandom = qs[0].Diag.DropsRandom
			}
		}
		out.Cells[i] = cr
	}
	return out, nil
}

// mustRunCampaign backs the built-in figure renderers, whose specs are
// compile-time constants and cannot fail to resolve.
func mustRunCampaign(tb *Testbed, spec Campaign, sc Scale) *CampaignResult {
	r, err := RunCampaign(tb, spec, sc)
	if err != nil {
		panic("core: " + err.Error())
	}
	return r
}

// RenderTable flattens the campaign into one row per cell with mean
// metric values — the generic text view for grids that have no bespoke
// figure renderer. Cells without a signal render "-". Replicated
// campaigns render every metric as "mean ±ci" (the 95% confidence
// half-width over replica means; "±-" when undefined) and note the
// replication factor in the title.
func (r *CampaignResult) RenderTable() *report.Table {
	title := fmt.Sprintf("campaign %s (scale=%s, seed=%d)", r.Name, r.Scale, r.Seed)
	if r.Repeats > 1 {
		title = fmt.Sprintf("campaign %s (scale=%s, seed=%d, repeats=%d)", r.Name, r.Scale, r.Seed, r.Repeats)
	}
	t := &report.Table{
		Title: title,
		Header: []string{"platform", "geometry", "motion", "N", "cap", "audio", "netem", "trace",
			"PSNR", "SSIM", "VIFp", "freeze", "up Mbps", "down Mbps", "MOS"},
	}
	mean := func(m *Metric) any {
		if m == nil {
			return "-"
		}
		if r.Repeats > 1 {
			ci := math.NaN()
			if m.CI95 != nil {
				ci = *m.CI95
			}
			return report.PlusMinus(m.Mean, ci)
		}
		return m.Mean
	}
	dash := func(s string) string {
		if s == "" {
			return "-"
		}
		return s
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		t.AddRow(c.Platform, c.Geometry, c.Motion, c.N, CapLabel(c.CapBps),
			audioSegment(c.Audio), dash(c.Netem), dash(c.Trace),
			mean(c.PSNR), mean(c.SSIM), mean(c.VIFP), mean(c.Freeze),
			mean(c.UpMbps), mean(c.DownMbps), mean(c.MOS))
	}
	return t
}
