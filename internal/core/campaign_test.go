package core

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/vcabench/vcabench/internal/report"
	"github.com/vcabench/vcabench/internal/stats"
	"github.com/vcabench/vcabench/internal/trace"
)

// detCampaign is a small grid exercising caps, audio and netem axes —
// cheap enough for the 1-vs-8-worker determinism test.
func detCampaign() Campaign {
	return Campaign{
		Name:      "det",
		Platforms: []string{"zoom", "meet"},
		Geometries: []Geometry{
			{Name: "mix", Host: "US-East", Receivers: []string{"US-West", "FR"}},
		},
		Motions: []string{"high-motion"},
		Sizes:   []int{3},
		CapsBps: []int64{0, 500_000},
		Audio:   []bool{true, false},
		Netem:   []Netem{{Name: "clean"}, {Name: "lossy", LossPct: 20}},
	}
}

// The tentpole invariant: a campaign's JSON result is byte-identical
// at any worker count, because every cell's values depend only on
// (seed, canonical key).
func TestCampaignJSONDeterminism(t *testing.T) {
	render := func(workers int) []byte {
		tb := NewTestbed(42).SetParallelism(workers)
		res, err := RunCampaign(tb, detCampaign(), TinyScale)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("campaign JSON differs between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if len(serial) < 200 {
		t.Errorf("campaign JSON suspiciously short:\n%s", serial)
	}
}

func TestCampaignResultShape(t *testing.T) {
	tb := NewTestbed(7)
	res, err := RunCampaign(tb, detCampaign(), TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Cells), 2*1*1*1*2*2*2; got != want {
		t.Fatalf("cell count = %d, want %d", got, want)
	}
	if res.Seed != 7 || res.Scale != TinyScale.Name || res.Name != "det" {
		t.Errorf("result header wrong: %+v", res)
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.PSNR == nil || c.SSIM == nil || c.DownMbps == nil {
			t.Errorf("cell %s missing video metrics", c.Key)
		}
		if c.Audio && c.MOS == nil {
			t.Errorf("cell %s has audio but no MOS", c.Key)
		}
		if !c.Audio && c.MOS != nil {
			t.Errorf("cell %s has MOS without audio", c.Key)
		}
		if c.Raw == nil {
			t.Errorf("cell %s lost its raw study result", c.Key)
		}
		if res.Cell(c.Key) != c {
			t.Errorf("Cell(%q) lookup failed", c.Key)
		}
	}
	// Loss must actually bite: lossy cells see worse SSIM than clean
	// ones for the same coordinates.
	clean := res.Cell("det/zoom/0/noaudio/clean")
	lossy := res.Cell("det/zoom/0/noaudio/lossy")
	if clean == nil || lossy == nil {
		t.Fatal("expected cells missing")
	}
	if lossy.SSIM.Mean >= clean.SSIM.Mean {
		t.Errorf("20%% loss did not hurt SSIM: clean %.3f, lossy %.3f", clean.SSIM.Mean, lossy.SSIM.Mean)
	}
}

// Ported figures must keep their historical unit keys: shard seeds
// derive from keys, so key drift would silently change every number.
func TestCampaignLegacyKeys(t *testing.T) {
	cases := []struct {
		spec Campaign
		want []string
	}{
		{usSweepCampaign(), []string{
			"fig12/zoom/low-motion/2", "fig12/webex/high-motion/6", "fig12/meet/low-motion/4"}},
		{pairCampaign("table1"), []string{"table1/zoom", "table1/webex", "table1/meet"}},
		{lastMileCampaign(), []string{
			"ext-lastmile/zoom/fluct", "ext-lastmile/webex/steady-300k", "ext-lastmile/meet/steady-1.5M"}},
	}
	fig17 := pairCampaign("fig17")
	fig17.Motions = []string{"low-motion", "high-motion"}
	fig17.CapsBps = capsList()
	cases = append(cases, struct {
		spec Campaign
		want []string
	}{fig17, []string{"fig17/zoom/low-motion/250000", "fig17/meet/high-motion/0"}})

	fig18 := pairCampaign("fig18")
	fig18.Motions = []string{"low-motion"}
	fig18.CapsBps = capsList()
	fig18.Audio = []bool{true}
	cases = append(cases, struct {
		spec Campaign
		want []string
	}{fig18, []string{"fig18/zoom/250000", "fig18/webex/1000000"}})

	for _, c := range cases {
		keys, err := c.spec.UnitKeys()
		if err != nil {
			t.Fatalf("%s: %v", c.spec.Name, err)
		}
		have := make(map[string]bool, len(keys))
		for _, k := range keys {
			if have[k] {
				t.Errorf("%s: duplicate key %q", c.spec.Name, k)
			}
			have[k] = true
		}
		for _, want := range c.want {
			if !have[want] {
				t.Errorf("%s: legacy key %q missing from %v", c.spec.Name, want, keys)
			}
		}
	}
}

// A minimal spec normalizes to one cell per platform.
func TestCampaignDefaults(t *testing.T) {
	keys, err := Campaign{Name: "min"}.UnitKeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 {
		t.Fatalf("default expansion = %v, want one cell per platform", keys)
	}
	if keys[0] != "min/zoom" || keys[1] != "min/webex" || keys[2] != "min/meet" {
		t.Errorf("default keys = %v", keys)
	}
}

func TestCampaignValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Campaign
		want string // substring of the error
	}{
		{"no name", Campaign{}, "name is required"},
		{"slash in name", Campaign{Name: "a/b"}, "must not contain"},
		{"slash in geometry", Campaign{Name: "x",
			Geometries: []Geometry{{Name: "a/b", Host: "US-East", Zone: "US"}}}, "must not contain"},
		{"slash in netem", Campaign{Name: "x", Netem: []Netem{{Name: "a/b"}}}, "must not contain"},
		{"bad platform", Campaign{Name: "x", Platforms: []string{"teams"}}, "unknown platform"},
		{"bad variant", Campaign{Name: "x", Platforms: []string{"zoom@nope"}}, "unknown platform"},
		{"dup platform", Campaign{Name: "x", Platforms: []string{"zoom", "zoom"}}, "duplicate platform"},
		{"bad motion", Campaign{Name: "x", Motions: []string{"fast"}}, "unknown motion"},
		{"small size", Campaign{Name: "x", Sizes: []int{1}}, "size 1 < 2"},
		{"dup size", Campaign{Name: "x", Sizes: []int{3, 3}}, "duplicate size"},
		{"negative cap", Campaign{Name: "x", CapsBps: []int64{-1}}, "negative cap"},
		{"bad region", Campaign{Name: "x", Geometries: []Geometry{{Host: "Mars", Zone: "US"}}}, "unknown region"},
		{"bad zone", Campaign{Name: "x", Geometries: []Geometry{{Host: "US-East", Zone: "Asia"}}}, "unknown zone"},
		{"no pool", Campaign{Name: "x", Geometries: []Geometry{{Host: "US-East"}}}, "needs a zone or a receiver list"},
		{"zone and receivers", Campaign{Name: "x",
			Geometries: []Geometry{{Host: "US-East", Zone: "US", Receivers: []string{"FR"}}}}, "both zone and receivers"},
		{"unnamed geometries", Campaign{Name: "x", Geometries: []Geometry{
			{Host: "US-East", Zone: "US"}, {Host: "CH", Zone: "EU"}}}, "needs a name"},
		{"unnamed netem", Campaign{Name: "x", Netem: []Netem{{}, {LossPct: 1}}}, "needs a name"},
		{"unnamed active netem", Campaign{Name: "x", Netem: []Netem{{LossPct: 1}}}, "sets impairments"},
		{"loss range", Campaign{Name: "x", Netem: []Netem{{LossPct: 100}}}, "loss_pct"},
		{"NaN loss", Campaign{Name: "x", Netem: []Netem{{Name: "n", LossPct: math.NaN()}}}, `netem "n" loss_pct NaN`},
		{"infinite fluct period", Campaign{Name: "x", Netem: []Netem{
			{Name: "n", FluctHiBps: 2000, FluctLoBps: 1000, FluctPeriodSec: math.Inf(1)}}}, `netem "n" fluct_period_sec +Inf is not finite`},
		{"NaN fluct period", Campaign{Name: "x", Netem: []Netem{
			{Name: "n", FluctHiBps: 2000, FluctLoBps: 1000, FluctPeriodSec: math.NaN()}}}, `netem "n" fluct_period_sec NaN is not finite`},
		{"partial fluct", Campaign{Name: "x", Netem: []Netem{{FluctHiBps: 1000}}}, "together"},
		{"two caps", Campaign{Name: "x", Netem: []Netem{
			{Name: "n", DownCapBps: 1000, FluctHiBps: 2000, FluctLoBps: 1000, FluctPeriodSec: 1}}}, "both a steady and a fluctuating"},
		{"inverted fluct", Campaign{Name: "x", Netem: []Netem{
			{Name: "n", FluctHiBps: 1000, FluctLoBps: 2000, FluctPeriodSec: 1}}}, "fluct_lo_bps > fluct_hi_bps"},
		{"fluct period too long", Campaign{Name: "x", Netem: []Netem{
			{Name: "n", FluctHiBps: 2000, FluctLoBps: 1000, FluctPeriodSec: 2e6}}}, `netem "n": trace "n": repeat_sec`},
		{"fluct period too short", Campaign{Name: "x", Netem: []Netem{
			{Name: "n", FluctHiBps: 2000, FluctLoBps: 1000, FluctPeriodSec: 1e-12}}}, `netem "n": trace "n": step 1 at_sec 0 not strictly increasing`},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestParseCampaign(t *testing.T) {
	spec, err := ParseCampaign([]byte(`{
		"name": "p",
		"platforms": ["zoom"],
		"geometries": [{"host": "US-East", "receivers": ["FR", "DE"]}],
		"sizes": [2, 4],
		"caps_bps": [0, 750000],
		"netem": [{"name": "a"}, {"name": "b", "loss_pct": 1.5}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	keys, err := spec.UnitKeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2*2*2 {
		t.Errorf("keys = %v", keys)
	}
	if keys[0] != "p/2/0/a" {
		t.Errorf("first key = %q", keys[0])
	}
	if _, err := ParseCampaign([]byte(`{"name": "x", "sizzes": [2]}`)); err == nil {
		t.Error("unknown field should be rejected")
	}
	if _, err := ParseCampaign([]byte(`{"name": "a"}{"name": "b"}`)); err == nil {
		t.Error("trailing data should be rejected")
	}
	if _, err := ParseCampaign([]byte(`{"name": ""}`)); err == nil {
		t.Error("invalid spec should be rejected at parse time")
	}
}

// The receiver pool cycles to fill any session size.
func TestGeometryReceiverCycling(t *testing.T) {
	g, err := resolveGeometry(Geometry{Host: "US-East", Receivers: []string{"FR", "DE"}}, false)
	if err != nil {
		t.Fatal(err)
	}
	got := g.receivers(5)
	want := []string{"FR", "DE", "FR", "DE", "FR"}
	for i, r := range got {
		if r.Name != want[i] {
			t.Errorf("receiver %d = %s, want %s", i, r.Name, want[i])
		}
	}
	if g.name != "US-East" {
		t.Errorf("default geometry name = %q, want host name", g.name)
	}
}

// RenderTable flattens a campaign without NaN leakage: the MOS column
// of audio-off cells renders "-".
func TestCampaignRenderTable(t *testing.T) {
	tb := NewTestbed(3)
	res, err := RunCampaign(tb, Campaign{Name: "flat", Platforms: []string{"zoom"}}, TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	out := res.RenderTable().String()
	if !strings.Contains(out, "campaign flat") || !strings.Contains(out, "zoom") {
		t.Errorf("table chrome missing:\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("NaN leaked into rendered table:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Errorf("missing MOS should render '-':\n%s", out)
	}
}

// Cell keys omit single-valued axes, but store keys carry the campaign
// salt: two same-named campaigns differing only in a single-valued axis
// both run on one testbed, and each equals its run on a fresh one.
func TestCampaignNameSpecPinning(t *testing.T) {
	specs := []Campaign{
		{Name: "pin", Platforms: []string{"zoom"}},
		{Name: "pin", Platforms: []string{"zoom"}, Audio: []bool{true}},
	}
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		want[i] = campaignJSON(t, NewTestbed(11), spec)
	}
	if bytes.Equal(want[0], want[1]) {
		t.Fatal("the two specs render the same bytes; the test cannot tell them apart")
	}
	tb := NewTestbed(11)
	for _, i := range []int{0, 1, 0} {
		if got := campaignJSON(t, tb, specs[i]); !bytes.Equal(got, want[i]) {
			t.Errorf("spec %d on a shared testbed differs from a fresh testbed:\n%s\nvs\n%s", i, got, want[i])
		}
	}
}

func TestSetParallelismRejectsNegative(t *testing.T) {
	tb := NewTestbed(1)
	defer func() {
		if recover() == nil {
			t.Error("SetParallelism(-1) should panic")
		}
	}()
	tb.SetParallelism(-1)
}

// trim/ratePretty/CapLabel formatting edge cases (the rounding and
// negative-value bugfixes).
func TestRateFormatting(t *testing.T) {
	trims := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{2.97, "3"},     // rounds up (was truncated to "2.9")
		{2.94, "2.9"},   // rounds down
		{1.25, "1.3"},   // half rounds away from zero
		{1.5, "1.5"},    // exact tenth kept
		{2.0, "2"},      // zero fraction dropped
		{0.96, "1"},     // carry into the integer part
		{-0.25, "-0.3"}, // negative magnitude rounding
		{-2.97, "-3"},   // negative carry
		{-0.04, "0"},    // rounds to zero: no "-0"
		{12345.6, "12345.6"},
	}
	for _, c := range trims {
		if got := trim(c.in); got != c.want {
			t.Errorf("trim(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	rates := []struct {
		in   float64
		want string
	}{
		{250_000, "250Kbps"},
		{999_999, "1000Kbps"}, // rounds within the K band
		{1_000_000, "1Mbps"},
		{1_250_000, "1.3Mbps"},
		{2_970_000, "3Mbps"},
		{999, "999bps"},
		{-500_000, "-500Kbps"},
	}
	for _, c := range rates {
		if got := ratePretty(c.in); got != c.want {
			t.Errorf("ratePretty(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	labels := []struct {
		in   int64
		want string
	}{
		{0, "Infinite"},
		{250_000, "250Kbps"},
		{500_000, "500Kbps"},
		{1_000_000, "1Mbps"},
		{750_000, "750Kbps"},
		{1_500_000, "1.5Mbps"},
		{2_970_000, "3Mbps"}, // rounded by the trim fix
	}
	for _, c := range labels {
		if got := CapLabel(c.in); got != c.want {
			t.Errorf("CapLabel(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

// The ported fig17 renderer and the campaign engine agree on keys: a
// smoke check that mustCell cannot panic for any rendered figure cell.
func TestPortedFigureKeysResolve(t *testing.T) {
	for _, spec := range []Campaign{usSweepCampaign(), pairCampaign("table1"), lastMileCampaign(), fig13Campaign(TinyScale)} {
		if _, err := spec.UnitKeys(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

// traceGrid is a small campaign with a multi-valued trace axis — one
// clean reference arm next to two schedules.
func traceGrid() Campaign {
	return Campaign{
		Name:       "trgrid",
		Platforms:  []string{"zoom", "meet"},
		Geometries: []Geometry{{Host: "US-East", Receivers: []string{"US-East2"}}},
		Motions:    []string{"high-motion"},
		Traces: []trace.Spec{
			{Name: "clean"},
			{Name: "dip", Square: &trace.SquareSpec{HighBps: 0, LowBps: 500_000, HighSec: 2, LowSec: 2, Once: true}},
			{Name: "ladder", StepDown: &trace.StepDownSpec{LevelsBps: []int64{1_000_000, 500_000, 250_000}, DwellSec: 2}},
		},
	}
}

// The trace axis keys like every other axis: appended as the last
// segment when multi-valued, omitted when single-valued.
func TestCampaignTraceKeys(t *testing.T) {
	keys, err := traceGrid().UnitKeys()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"trgrid/zoom/clean", "trgrid/zoom/dip", "trgrid/zoom/ladder",
		"trgrid/meet/clean", "trgrid/meet/dip", "trgrid/meet/ladder",
	}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("key %d = %q, want %q", i, keys[i], want[i])
		}
	}
	// A single-valued trace axis stays out of the keys (fig13 keeps
	// plain "fig13/<platform>" cells).
	keys, err = fig13Campaign(TinyScale).UnitKeys()
	if err != nil {
		t.Fatal(err)
	}
	if keys[0] != "fig13/zoom" {
		t.Errorf("single-trace key = %q", keys[0])
	}
}

func TestCampaignTraceValidation(t *testing.T) {
	dip := func() *trace.SquareSpec {
		return &trace.SquareSpec{HighBps: 0, LowBps: 500_000, HighSec: 1, LowSec: 1, Once: true}
	}
	cases := []struct {
		name string
		spec Campaign
		want string
	}{
		{"unnamed active trace", Campaign{Name: "x",
			Traces: []trace.Spec{{Square: dip()}}}, "needs a name"},
		{"unnamed among several", Campaign{Name: "x",
			Traces: []trace.Spec{{}, {Name: "a", Square: dip()}}}, "needs a name"},
		{"slash in trace name", Campaign{Name: "x",
			Traces: []trace.Spec{{Name: "a/b", Square: dip()}}}, "must not contain"},
		{"dup trace name", Campaign{Name: "x",
			Traces: []trace.Spec{{Name: "a", Square: dip()}, {Name: "a", Square: dip()}}}, "duplicate trace"},
		{"bad generator", Campaign{Name: "x",
			Traces: []trace.Spec{{Name: "a", Square: &trace.SquareSpec{HighSec: 0, LowSec: 1}}}}, "high_sec"},
		{"bad steps", Campaign{Name: "x",
			Traces: []trace.Spec{{Name: "a", Steps: []trace.Step{{AtSec: 2}, {AtSec: 1}}}}}, "strictly increasing"},
		{"two sources", Campaign{Name: "x",
			Traces: []trace.Spec{{Name: "a", Square: dip(), Steps: []trace.Step{{AtSec: 0}}}}}, "mutually exclusive"},
		{"netem loss conflict", Campaign{Name: "x",
			Netem:  []Netem{{Name: "lossy", LossPct: 5}},
			Traces: []trace.Spec{{Name: "a", Square: dip()}}}, "cannot combine"},
		{"netem fluct conflict", Campaign{Name: "x",
			Netem:  []Netem{{Name: "w", FluctHiBps: 1_000_000, FluctLoBps: 100_000, FluctPeriodSec: 2}},
			Traces: []trace.Spec{{Name: "a", Square: dip()}}}, "cannot combine"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v does not mention %q", c.name, err, c.want)
		}
	}
	// A named no-op netem arm next to a trace axis is fine.
	ok := Campaign{Name: "x",
		Netem:  []Netem{{Name: "n1"}, {Name: "n2"}},
		Traces: []trace.Spec{{Name: "a", Square: dip()}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("inactive netem rejected next to traces: %v", err)
	}
}

// Trace cells carry their schedule's effects and series; clean cells
// stay series-free so legacy JSON shapes are untouched.
func TestCampaignTraceCells(t *testing.T) {
	tb := NewTestbed(5)
	res, err := RunCampaign(tb, traceGrid(), TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	clean := res.Cell("trgrid/zoom/clean")
	dip := res.Cell("trgrid/zoom/dip")
	if clean == nil || dip == nil {
		t.Fatal("expected cells missing")
	}
	if clean.RateOverTime != nil {
		t.Errorf("clean cell grew a rate series: %v", clean.RateOverTime)
	}
	bins := int(TinyScale.QoEDur / rateBinWidth)
	if len(dip.RateOverTime) != bins {
		t.Fatalf("dip series has %d bins, want %d", len(dip.RateOverTime), bins)
	}
	if dip.Trace != "dip" || clean.Trace != "clean" {
		t.Errorf("trace labels: %q, %q", dip.Trace, clean.Trace)
	}
	// The dip must bite: the capped middle bins run well below the
	// pre-dip rate, and the post-recovery tail climbs back above the
	// capped floor.
	pre, mid := dip.RateOverTime[1].DownMbps, dip.RateOverTime[3].DownMbps
	if mid >= pre {
		t.Errorf("dip did not bite: pre %.3f, mid %.3f", pre, mid)
	}
	if mid > 0.75 {
		t.Errorf("capped bin runs at %.3f Mbps under a 0.5 Mbps cap", mid)
	}
	for _, pt := range dip.RateOverTime {
		if pt.DownMbps < 0 {
			t.Errorf("negative rate bin: %+v", pt)
		}
	}
}

// repGrid is a small replicated campaign: two cells × three replicas.
func repGrid() Campaign {
	return Campaign{
		Name:       "repgrid",
		Platforms:  []string{"zoom", "meet"},
		Geometries: []Geometry{{Host: "US-East", Receivers: []string{"US-East2"}}},
		Motions:    []string{"high-motion"},
		Repeats:    3,
	}
}

// Replica units key cell-major with a trailing canonical rep segment;
// Repeats 0 and 1 keep the bare historical cell keys.
func TestCampaignRepeatsKeys(t *testing.T) {
	keys, err := repGrid().UnitKeys()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"repgrid/zoom/rep=0", "repgrid/zoom/rep=1", "repgrid/zoom/rep=2",
		"repgrid/meet/rep=0", "repgrid/meet/rep=1", "repgrid/meet/rep=2",
	}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("key %d = %q, want %q", i, keys[i], want[i])
		}
	}
	for _, repeats := range []int{0, 1} {
		spec := repGrid()
		spec.Repeats = repeats
		keys, err := spec.UnitKeys()
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 2 || keys[0] != "repgrid/zoom" || keys[1] != "repgrid/meet" {
			t.Errorf("repeats=%d keys = %v, want bare cell keys", repeats, keys)
		}
	}
}

func TestCampaignRepeatsValidation(t *testing.T) {
	for _, c := range []struct {
		repeats int
		want    string // error substring; "" means valid
	}{
		{0, ""},
		{1, ""},
		{MaxRepeats, ""},
		{-1, "repeats -1 < 0"},
		{MaxRepeats + 1, "exceeds the limit"},
	} {
		spec := Campaign{Name: "x", Repeats: c.repeats}
		err := spec.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("repeats=%d rejected: %v", c.repeats, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("repeats=%d: error %v does not mention %q", c.repeats, err, c.want)
		}
	}
	// The same bounds hold for parsed specs.
	if _, err := ParseCampaign([]byte(`{"name": "x", "repeats": -2}`)); err == nil {
		t.Error("negative repeats accepted at parse time")
	}
	if _, err := ParseCampaign([]byte(`{"name": "x", "repeats": 1000000}`)); err == nil {
		t.Error("oversized repeats accepted at parse time")
	}
}

// A spec with Repeats 1 (or unset) must not change output at all: same
// JSON bytes, no repeats header, no replicas blocks.
func TestCampaignRepeatsOneByteIdentical(t *testing.T) {
	render := func(repeats int) []byte {
		spec := detCampaign()
		spec.Repeats = repeats
		res, err := RunCampaign(NewTestbed(42), spec, TinyScale)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	unset := render(0)
	one := render(1)
	if !bytes.Equal(unset, one) {
		t.Error("Repeats: 1 output differs from an unset spec")
	}
	if bytes.Contains(unset, []byte(`"repeats"`)) || bytes.Contains(unset, []byte(`"replicas"`)) {
		t.Error("single-run JSON grew replication fields")
	}
	if bytes.Contains(unset, []byte(`"rep=`)) {
		t.Error("single-run JSON carries replica key segments")
	}
}

// The aggregation contract of a replicated cell: pooled summaries over
// all replica observations, replication fields over replica means, and
// per-replica summaries exposed in order.
func TestCampaignReplicatedAggregation(t *testing.T) {
	res, err := RunCampaign(NewTestbed(7), repGrid(), TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repeats != 3 {
		t.Fatalf("result repeats = %d, want 3", res.Repeats)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2 (replicas must not become cells)", len(res.Cells))
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		if len(c.Replicas) != 3 {
			t.Fatalf("cell %s has %d replicas", c.Key, len(c.Replicas))
		}
		for k, rep := range c.Replicas {
			if want := c.Key + "/rep=" + strconv.Itoa(k); rep.Key != want {
				t.Errorf("replica key = %q, want %q", rep.Key, want)
			}
			if rep.PSNR == nil {
				t.Fatalf("replica %s missing PSNR", rep.Key)
			}
			if rep.PSNR.Reps != 0 || rep.PSNR.StdErr != nil || rep.PSNR.CI95 != nil {
				t.Errorf("replica %s metric carries aggregation fields", rep.Key)
			}
		}
		// Replicas run on independent key-derived seeds: equal means
		// across all three would mean the rep segment is not reaching
		// the fork seed.
		if c.Replicas[0].PSNR.Mean == c.Replicas[1].PSNR.Mean &&
			c.Replicas[1].PSNR.Mean == c.Replicas[2].PSNR.Mean {
			t.Errorf("cell %s replicas are identical", c.Key)
		}
		m := c.PSNR
		if m == nil {
			t.Fatalf("cell %s missing aggregated PSNR", c.Key)
		}
		pooled, lo, hi := 0, c.Replicas[0].PSNR.Mean, c.Replicas[0].PSNR.Mean
		for _, rep := range c.Replicas {
			pooled += rep.PSNR.N
			if rep.PSNR.Mean < lo {
				lo = rep.PSNR.Mean
			}
			if rep.PSNR.Mean > hi {
				hi = rep.PSNR.Mean
			}
		}
		if m.N != pooled {
			t.Errorf("cell %s pooled N = %d, want %d", c.Key, m.N, pooled)
		}
		if m.Reps != 3 {
			t.Errorf("cell %s reps = %d, want 3", c.Key, m.Reps)
		}
		if m.StdErr == nil || m.CI95 == nil {
			t.Fatalf("cell %s missing stderr/ci95", c.Key)
		}
		if got, want := *m.CI95, 1.96*(*m.StdErr); got != want {
			t.Errorf("cell %s ci95 = %v, want 1.96*stderr = %v", c.Key, got, want)
		}
		if m.Mean < lo || m.Mean > hi {
			t.Errorf("cell %s pooled mean %v outside replica-mean range [%v, %v]", c.Key, m.Mean, lo, hi)
		}
		// Audio is off: no replica has MOS, so the aggregate must stay
		// nil rather than becoming a zero-filled metric.
		if c.MOS != nil {
			t.Errorf("cell %s grew a MOS aggregate without audio", c.Key)
		}
		if c.Raw == nil {
			t.Errorf("cell %s lost its raw study result", c.Key)
		}
	}
	// The rendered table reports ±CI and the replication factor.
	out := res.RenderTable().String()
	if !strings.Contains(out, "repeats=3") || !strings.Contains(out, "±") {
		t.Errorf("replicated table missing ±CI chrome:\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("NaN leaked into replicated table:\n%s", out)
	}
}

// replicatedMetric's edge cases: replicas without data — nil, empty or
// all-NaN samples — are skipped; a single surviving replica keeps its
// summary but has undefined spread.
func TestReplicatedMetricEdgeCases(t *testing.T) {
	sample := func(xs ...float64) *stats.Sample {
		s := &stats.Sample{}
		s.AddAll(xs)
		return s
	}
	if m := replicatedMetric(nil); m != nil {
		t.Errorf("no replicas aggregated to %+v", m)
	}
	if m := replicatedMetric([]*stats.Sample{nil, {}, sample(math.NaN(), math.NaN())}); m != nil {
		t.Errorf("dataless replicas aggregated to %+v", m)
	}
	m := replicatedMetric([]*stats.Sample{nil, sample(1, 2, 3)})
	if m == nil || m.Reps != 1 || m.N != 3 {
		t.Fatalf("single-replica aggregate = %+v", m)
	}
	if m.StdErr != nil || m.CI95 != nil {
		t.Errorf("single replica has defined spread: %+v", m)
	}
	// NaN observations inside an otherwise healthy replica are dropped,
	// not pooled.
	m = replicatedMetric([]*stats.Sample{sample(1, math.NaN()), sample(3)})
	if m == nil || m.N != 2 || m.Reps != 2 {
		t.Fatalf("NaN-bearing aggregate = %+v", m)
	}
	if m.Mean != 2 {
		t.Errorf("pooled mean = %v, want 2", m.Mean)
	}
	if m.StdErr == nil || math.IsNaN(*m.StdErr) {
		t.Errorf("two replicas should define stderr: %+v", m)
	}
}
