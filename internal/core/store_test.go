package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// Store keys must separate everything results depend on beyond the unit
// key: schema version aside — seed, scale (including tweaked scales
// reusing a preset name) and campaign context that
// single-valued axes leave out of unit keys.
func TestCellKeyScoping(t *testing.T) {
	base := NewTestbed(42)
	tiny := scaleFingerprint(TinyScale)
	if a, b := base.cellKey(tiny, "", "k"), NewTestbed(43).cellKey(tiny, "", "k"); a == b {
		t.Error("different seeds share a cell key")
	}
	if a, b := base.cellKey(tiny, "", "k"), base.cellKey(scaleFingerprint(QuickScale), "", "k"); a == b {
		t.Error("different scales share a cell key")
	}
	tweaked := TinyScale
	tweaked.QoEDur *= 2
	if a, b := base.cellKey(tiny, "", "k"), base.cellKey(scaleFingerprint(tweaked), "", "k"); a == b {
		t.Error("a tweaked scale reusing the preset name shares a cell key")
	}
	if a, b := base.cellKey(tiny, "ctx1", "k"), base.cellKey(tiny, "ctx2", "k"); a == b {
		t.Error("different campaign salts share a cell key")
	}
	// And two same-named campaigns differing only in a single-valued
	// axis resolve to different salts (their unit keys collide).
	a := Campaign{Name: "s", Platforms: []string{"zoom"}}
	b := Campaign{Name: "s", Platforms: []string{"zoom"}, Audio: []bool{true}}
	ra, err := a.resolve()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if saltOf(ra) == saltOf(rb) {
		t.Error("campaigns differing in a single-valued axis share a salt")
	}
}

// saltOf mirrors RunCampaign's store-salt derivation.
func saltOf(rc *resolvedCampaign) string {
	return fingerprint(fmt.Sprintf("%+v", rc))
}

// A store serving undecodable bytes is a miss, not a failure: the run
// recomputes and overwrites.
type garbageStore struct{ gets, puts int }

func (g *garbageStore) Get(string) ([]byte, bool) { g.gets++; return []byte("junk"), true }
func (g *garbageStore) Put(string, []byte) error  { g.puts++; return nil }

func TestStoreGarbageToleratedAndOverwritten(t *testing.T) {
	g := &garbageStore{}
	tb := NewTestbed(3).WithStore(g)
	res, err := RunCampaign(tb, Campaign{Name: "g", Platforms: []string{"zoom"}}, TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 || res.Cells[0].PSNR == nil {
		t.Fatalf("run with garbage store produced no result: %+v", res)
	}
	if g.gets == 0 || g.puts == 0 {
		t.Errorf("store consulted %d times, rewritten %d times; want both > 0", g.gets, g.puts)
	}
	if err := tb.StoreErr(); err != nil {
		t.Errorf("garbage reads must not surface as store errors: %v", err)
	}
}

// A failing Put never fails the run, but is reported via StoreErr.
type readOnlyStore struct{}

func (readOnlyStore) Get(string) ([]byte, bool) { return nil, false }
func (readOnlyStore) Put(string, []byte) error  { return errors.New("disk full") }

func TestStorePutFailureSurfacedNotFatal(t *testing.T) {
	tb := NewTestbed(4).WithStore(readOnlyStore{})
	if _, err := RunCampaign(tb, Campaign{Name: "ro", Platforms: []string{"zoom"}}, TinyScale); err != nil {
		t.Fatalf("read-only store failed the run: %v", err)
	}
	if err := tb.StoreErr(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("StoreErr = %v, want the Put failure", err)
	}
}

// Lag unit keys carry no scale, so a testbed that rendered a lag figure
// at one scale must not serve those units at another: the store key's
// scale fingerprint keeps them apart, and the second scale renders
// what a fresh testbed renders.
func TestLagFigureRescaledOnOneTestbed(t *testing.T) {
	more := TinyScale
	more.LagSessions++
	for _, id := range []string{"fig4", "ablate-p2p"} {
		t.Run(id, func(t *testing.T) {
			e, ok := Lookup(id)
			if !ok {
				t.Fatalf("missing experiment %s", id)
			}
			render := func(tb *Testbed, sc Scale) string {
				var sb strings.Builder
				e.Run(tb, sc, &sb)
				return sb.String()
			}
			tb := NewTestbed(42)
			tiny := render(tb, TinyScale)
			got := render(tb, more)
			want := render(NewTestbed(42), more)
			if want == tiny {
				t.Fatal("LagSessions+1 renders the tiny bytes; the test cannot tell the scales apart")
			}
			if got != want {
				t.Errorf("second scale on a shared testbed differs from a fresh testbed:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// WithStore(nil) swaps a persistent store back for an empty in-process
// one, which serves repeats as before.
func TestWithStoreNilRestoresInProcessStore(t *testing.T) {
	tel := manualTelemetry()
	tb := NewTestbed(4).WithStore(readOnlyStore{}).WithStore(nil).WithTelemetry(tel)
	spec := Campaign{Name: "nil", Platforms: []string{"zoom"}}
	first := campaignJSON(t, tb, spec)
	if again := campaignJSON(t, tb, spec); !bytes.Equal(first, again) {
		t.Error("repeat differs from the first run")
	}
	units := tel.Metrics.CounterVec("vcabench_units_total",
		"Campaign units resolved, by serving tier.", "tier")
	if l, s := units.With("local").Value(), units.With("store").Value(); l != 1 || s != 1 {
		t.Errorf("units_total local/store = %d/%d, want 1/1", l, s)
	}
	if err := tb.StoreErr(); err != nil {
		t.Errorf("in-process store reported %v", err)
	}
}
