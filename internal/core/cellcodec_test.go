package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/vcabench/vcabench/internal/capture"
	"github.com/vcabench/vcabench/internal/diag"
	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/stats"
)

// edgeFloats are the values a float codec most easily gets wrong:
// NaNs with and without payloads, both zeros, both infinities, the
// subnormal extremes and the finite extremes.
var edgeFloats = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff8_0000_0000_0bad), // quiet NaN with a payload
	math.Float64frombits(0xfff0_0000_0000_0001), // negative signalling NaN
	math.Copysign(0, -1),
	0,
	math.Inf(1),
	math.Inf(-1),
	math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff), // largest subnormal
	math.MaxFloat64,
	-1.5,
}

func edgeSample() *stats.Sample {
	s := stats.NewSample(0)
	s.AddAll(edgeFloats)
	return s
}

// edgeQoE is a QoE cell carrying every edge float in each sample, in
// RateOverTime and in every float field of its Diag document.
func edgeQoE() *QoEStudyResult {
	q := &QoEStudyResult{
		Kind: platform.Zoom, Motion: media.HighMotion, N: 4,
		PSNR: edgeSample(), SSIM: edgeSample(), VIFP: edgeSample(), Freeze: edgeSample(),
		UpMbps: edgeSample(), DownMbps: edgeSample(), MOS: edgeSample(),
		RateOverTime: append([]float64(nil), edgeFloats...),
		RateBin:      time.Second,
	}
	d := &diag.CellDiag{
		Version: diag.Version, Key: "edge/zoom", BinSec: math.Copysign(0, -1),
		DropsQueue: -3, DropsRandom: math.MaxInt64,
		Pipes: []diag.PipeSeries{{Name: "down:recv-1"}, {Name: "up:host"}},
		Queue: []diag.QueueBin{{Bin: 0, Steps: math.MinInt64, DepthMax: 7}, {Bin: 9, Steps: 1, DepthMax: -1}},
	}
	for i, x := range edgeFloats {
		d.Pipes[i%2].Bins = append(d.Pipes[i%2].Bins, diag.PipeBin{
			Bin: i, Packets: int64(i) << 40, Bytes: -int64(i), DropsQueue: 1, DropsRandom: 2,
			QueueMaxBytes: math.MaxInt32, DelayMsMean: x,
		})
		d.Events = append(d.Events, diag.Event{AtSec: x, Kind: diag.KindFreeze, Subject: "ü\xff", Value: edgeFloats[len(edgeFloats)-1-i]})
	}
	q.Diag = d
	return q
}

// edgeLag is a lag cell with several entries in both maps (inserted out
// of key order) and edge values in every float and integer field.
func edgeLag() *LagStudyResult {
	return &LagStudyResult{
		Kind: platform.Meet,
		HostRegion: geo.Region{Name: "US-East", Location: "Virginia", Zone: geo.ZoneUS,
			Pos: geo.LatLon{Lat: math.Copysign(0, -1), Lon: math.NaN()}},
		Lags:      map[string]*stats.Sample{"US-West": edgeSample(), "FR": edgeSample(), "": stats.NewSample(0), "DE": edgeSample()},
		RTTs:      map[string]*stats.Sample{"US-West": edgeSample(), "CH": edgeSample(), "IE": stats.NewSample(0)},
		Endpoints: capture.EndpointStats{Total: 3, PerSession: math.SmallestNonzeroFloat64, Sessions: -1},
		Fig2: Fig2Series{
			SentT: []time.Duration{0, -1, math.MaxInt64, math.MinInt64},
			RecvT: []time.Duration{time.Millisecond},
			SentS: []int{1, 1500, math.MinInt, math.MaxInt},
			RecvS: []int{0},
		},
	}
}

// bitsEqual reports whether a and b hold the same value, comparing
// floats by math.Float64bits (so a NaN equals the same NaN, and -0
// differs from 0). Pointers must agree on nil-ness; a nil slice or map
// equals an empty one, a difference the encoding does not keep.
func bitsEqual(t *testing.T, a, b reflect.Value) bool {
	t.Helper()
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitsEqual(t, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(t, a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(t, a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() || !bitsEqual(t, a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int64:
		return a.Int() == b.Int()
	}
	t.Fatalf("bitsEqual: unhandled kind %s", a.Kind())
	return false
}

// roundTrip encodes v, decodes it, checks the decoded value is
// bit-identical to v and re-encodes to the same bytes, and returns the
// decoded value.
func roundTrip(t *testing.T, v any) any {
	t.Helper()
	data, err := encodeCell(v)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeCell(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bitsEqual(t, reflect.ValueOf(v), reflect.ValueOf(back)) {
		t.Fatalf("round trip changed the value:\n in: %+v\nout: %+v", v, back)
	}
	again, err := encodeCell(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-encoding the decoded value changed the bytes")
	}
	return back
}

func TestCellRoundTripBitExact(t *testing.T) {
	roundTrip(t, edgeQoE())
	roundTrip(t, edgeLag())
	// Observation order survives: Mean sums in insertion order.
	q := roundTrip(t, edgeQoE()).(*QoEStudyResult)
	if got := q.MOS.Len(); got != len(edgeFloats) {
		t.Fatalf("MOS has %d observations, want %d", got, len(edgeFloats))
	}
	// The real cells also hold the fuzz seeds to what they promise: a
	// Diag document on the armed cell, a rate series on the trace cell,
	// filled lag maps.
	for _, c := range realCells(t) {
		v, err := decodeCell(c.data)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		roundTrip(t, v)
		var ok bool
		switch c.name {
		case "qoe":
			ok = v.(*QoEStudyResult).Diag == nil && v.(*QoEStudyResult).PSNR.Len() > 0
		case "qoe-diag":
			ok = v.(*QoEStudyResult).Diag != nil && len(v.(*QoEStudyResult).Diag.Pipes) > 0
		case "trace":
			ok = len(v.(*QoEStudyResult).RateOverTime) > 0
		case "lag":
			ok = len(v.(*LagStudyResult).Lags) >= 2 && len(v.(*LagStudyResult).RTTs) >= 2
		}
		if !ok {
			t.Errorf("%s cell lacks its shape: %+v", c.name, v)
		}
	}
}

// An absent sample or Diag document must come back absent, and a
// present but empty one must come back present.
func TestCellNilPointersStayDistinct(t *testing.T) {
	absent := &QoEStudyResult{Kind: platform.Webex, PSNR: stats.NewSample(0)}
	present := &QoEStudyResult{Kind: platform.Webex, PSNR: stats.NewSample(0), MOS: stats.NewSample(0), Diag: &diag.CellDiag{}}
	a, err := encodeCell(absent)
	if err != nil {
		t.Fatal(err)
	}
	p, err := encodeCell(present)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, p) {
		t.Fatal("nil and empty MOS/Diag encode to the same bytes")
	}
	qa := roundTrip(t, absent).(*QoEStudyResult)
	if qa.MOS != nil || qa.Diag != nil || qa.SSIM != nil {
		t.Errorf("absent pointers decoded as present: MOS %v, Diag %v, SSIM %v", qa.MOS, qa.Diag, qa.SSIM)
	}
	qp := roundTrip(t, present).(*QoEStudyResult)
	if qp.MOS == nil || qp.Diag == nil || qp.PSNR == nil {
		t.Errorf("present pointers decoded as absent: MOS %v, Diag %v, PSNR %v", qp.MOS, qp.Diag, qp.PSNR)
	}
	l := edgeLag()
	l.RTTs["nil"] = nil
	back := roundTrip(t, l).(*LagStudyResult)
	if s, ok := back.RTTs["nil"]; !ok || s != nil {
		t.Errorf("nil map sample decoded as %v (present %v)", s, ok)
	}
	if back.RTTs["IE"] == nil {
		t.Error("empty map sample decoded as nil")
	}
}

// The same value always encodes to the same bytes, whatever order Go
// iterates its maps in. Gob fails this: it writes maps in iteration
// order.
func TestCellEncodingCanonical(t *testing.T) {
	l := edgeLag()
	want, err := encodeCell(l)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		got, err := encodeCell(l)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

// encodeCell sizes its buffer from the value before it writes, so a
// lag cell and a diagnostics-armed QoE cell each cost one allocation:
// the returned bytes.
func TestEncodeCellAllocatesOnce(t *testing.T) {
	for _, c := range realCells(t) {
		if c.name != "lag" && c.name != "qoe-diag" {
			continue
		}
		v, err := decodeCell(c.data)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs := testing.AllocsPerRun(20, func() { encodeCell(v) }); allocs != 1 {
			t.Errorf("%s: encodeCell made %v allocations, want 1", c.name, allocs)
		}
	}
}

// A cell persisted by the v5 schema (gob) must fail to decode, never
// decode to a wrong value.
func TestDecodeCellRejectsGobCells(t *testing.T) {
	gob.Register(&QoEStudyResult{})
	gob.Register(&LagStudyResult{})
	q := newQoEResult(platform.Zoom, media.LowMotion, 3)
	q.PSNR.AddAll([]float64{31.5, 29.25})
	for _, v := range []any{q, edgeQoE(), edgeLag()} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
			t.Fatal(err)
		}
		if got, err := decodeCell(buf.Bytes()); err == nil {
			t.Errorf("gob cell of %T decoded as %+v", v, got)
		}
	}
}

func TestDecodeCellRejectsMalformed(t *testing.T) {
	for _, v := range []any{edgeQoE(), edgeLag()} {
		data, err := encodeCell(v)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(data); n++ {
			if _, err := decodeCell(data[:n]); err == nil {
				t.Fatalf("%T truncated to %d of %d bytes decoded", v, n, len(data))
			}
		}
		if _, err := decodeCell(append(append([]byte(nil), data...), 0)); err == nil {
			t.Errorf("%T with a trailing byte decoded", v)
		}
	}

	// Each malformed cell below differs from a valid one in one place
	// only, so the check it names is the one that must reject it.
	build := func(tag byte, body func(w *cellWriter)) []byte {
		w := cellWriter{b: []byte{tag}}
		body(&w)
		return w.b
	}
	valid := func(v any) []byte {
		data, err := encodeCell(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	lagWithKeys := func(keys ...string) []byte {
		return build(cellTagLag, func(w *cellWriter) {
			for _, s := range []string{"zoom", "US-East", "Virginia", "US"} {
				w.str(s)
			}
			w.float(0)
			w.float(0)
			w.uvarint(uint64(len(keys)))
			for _, k := range keys {
				w.str(k)
				w.present(false)
			}
			w.uvarint(0) // RTTs
			w.varint(0)  // Endpoints
			w.float(0)
			w.varint(0)
			for i := 0; i < 4; i++ { // Fig2
				w.uvarint(0)
			}
		})
	}
	if _, err := decodeCell(lagWithKeys("a", "b")); err != nil {
		t.Fatalf("hand-built lag cell: %v", err)
	}
	bare := valid(&QoEStudyResult{Kind: "zoom"})
	nonMinimal := append([]byte{cellTagQoE, 0x84, 0x00}, bare[2:]...) // Kind length 4 in two bytes
	badPresence := append([]byte(nil), bare...)
	badPresence[1+5+1+1] = 2 // PSNR's presence byte, after Kind, Motion and N
	cases := map[string][]byte{
		"empty":                 nil,
		"unknown tag":           append([]byte{0x01}, bare[1:]...),
		"non-minimal varint":    nonMinimal,
		"presence byte 2":       badPresence,
		"map keys out of order": lagWithKeys("b", "a"),
		"duplicate map key":     lagWithKeys("a", "a"),
		"length past the end": build(cellTagQoE, func(w *cellWriter) {
			w.uvarint(100)
			w.b = append(w.b, "zoom"...)
		}),
		"sample count past the end": build(cellTagQoE, func(w *cellWriter) {
			w.str("zoom")
			w.varint(0)
			w.varint(2)
			w.present(true)
			w.b = append(w.b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f)
		}),
	}
	//vcalint:ignore maprange each case is checked on its own
	for name, data := range cases {
		if v, err := decodeCell(data); err == nil {
			t.Errorf("%s: decoded as %+v", name, v)
		}
	}

	for _, v := range []any{"cell", nil} {
		if _, err := encodeCell(v); err == nil {
			t.Errorf("encodeCell(%#v) succeeded", v)
		}
	}
}

// Store keys keep their exact bytes for a given schema version: the
// scale fingerprint is computed once per batch of units, but spells the
// same as it always has.
func TestCellKeyBytes(t *testing.T) {
	if got, want := NewTestbed(42).cellKey(scaleFingerprint(TinyScale), "", "lag/zoom/US-East"),
		"v6/bare/seed42/tiny-64258db51f25c713/-/lag/zoom/US-East"; got != want {
		t.Errorf("cellKey = %q, want %q", got, want)
	}
	if got, want := NewTestbed(42).WithDiagnostics().cellKey(scaleFingerprint(QuickScale), "abc", "k"),
		"v6/diag/seed42/quick-1c078b701d687ffa/abc/k"; got != want {
		t.Errorf("cellKey = %q, want %q", got, want)
	}
}

type namedCell struct {
	name string
	data []byte
}

var (
	realCellsOnce sync.Once
	realCellsData []namedCell
	realCellsErr  error
)

// realCells computes four real tiny-scale cells once per test binary:
// a QoE cell, the same cell with its Diag document, a trace cell with a
// RateOverTime series, and a lag cell.
func realCells(tb testing.TB) []namedCell {
	tb.Helper()
	realCellsOnce.Do(func() {
		spec := Campaign{Name: "codec", Platforms: []string{"zoom"}}
		add := func(name string, data []byte, err error) {
			if realCellsErr == nil && err != nil {
				realCellsErr = err
			}
			realCellsData = append(realCellsData, namedCell{name, data})
		}
		unit := func(name string, tb *Testbed, spec Campaign) {
			keys, err := spec.UnitKeys()
			if err != nil {
				add(name, nil, err)
				return
			}
			data, err := RunCampaignUnit(tb, spec, TinyScale, keys[0])
			add(name, data, err)
		}
		unit("qoe", NewTestbed(42), spec)
		unit("qoe-diag", NewTestbed(42).WithDiagnostics(), spec)
		unit("trace", NewTestbed(42), fig13Campaign(TinyScale))
		lag := RunLagStudy(NewTestbed(42).Fork("codec/lag"), platform.Zoom, geo.USEast, USLagFleet(geo.USEast), TinyScale)
		data, err := encodeCell(lag)
		add("lag", data, err)
	})
	if realCellsErr != nil {
		tb.Fatal(realCellsErr)
	}
	return realCellsData
}
