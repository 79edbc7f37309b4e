package mobile

import (
	"math/rand"
	"testing"

	"github.com/vcabench/vcabench/internal/platform"
)

func TestTable2Specs(t *testing.T) {
	if GalaxyJ3.Cores != 4 || GalaxyJ3.MemoryGB != 2 || GalaxyJ3.ScreenW != 720 {
		t.Errorf("J3 specs: %+v", GalaxyJ3)
	}
	if GalaxyS10.Cores != 8 || GalaxyS10.MemoryGB != 8 || GalaxyS10.ScreenH != 3040 {
		t.Errorf("S10 specs: %+v", GalaxyS10)
	}
	if GalaxyJ3.Class != LowEnd || GalaxyS10.Class != HighEnd {
		t.Error("device classes")
	}
}

// Finding-5 and Fig 19a: 2-3 full cores for LM/HM on both devices.
func TestCPUNeedsTwoToThreeCores(t *testing.T) {
	for _, k := range platform.Kinds {
		for _, d := range Devices {
			for _, sc := range []Scenario{ScenarioLM, ScenarioHM} {
				cpu := CPUPercent(k, d, sc)
				if cpu < 120 || cpu > 320 {
					t.Errorf("%s/%s/%s CPU = %.0f%%, want 120-320", k, d.Name, sc, cpu)
				}
			}
		}
	}
}

// Fig 19a: Meet adds ~50% extra CPU on the high-end device, but usage is
// comparable (~200%) across clients on the low-end device.
func TestMeetOpportunisticOnS10(t *testing.T) {
	zoom := CPUPercent(platform.Zoom, GalaxyS10, ScenarioLM)
	meet := CPUPercent(platform.Meet, GalaxyS10, ScenarioLM)
	if meet < zoom+35 {
		t.Errorf("Meet S10 CPU %.0f not clearly above Zoom %.0f", meet, zoom)
	}
	var lo, hi float64 = 1e9, 0
	for _, k := range platform.Kinds {
		c := CPUPercent(k, GalaxyJ3, ScenarioLM)
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi-lo > 45 {
		t.Errorf("J3 clients should be comparable: spread %.0f (%v..%v)", hi-lo, lo, hi)
	}
}

// Fig 19a: only Zoom benefits from gallery view (-50%); Webex slightly
// increases; Meet unchanged.
func TestGalleryViewEffects(t *testing.T) {
	zFull := CPUPercent(platform.Zoom, GalaxyS10, ScenarioLM)
	zGal := CPUPercent(platform.Zoom, GalaxyS10, ScenarioLMView)
	if zGal > zFull*0.75 {
		t.Errorf("Zoom gallery CPU %.0f vs full %.0f: want big reduction", zGal, zFull)
	}
	wFull := CPUPercent(platform.Webex, GalaxyS10, ScenarioLM)
	wGal := CPUPercent(platform.Webex, GalaxyS10, ScenarioLMView)
	if wGal < wFull*0.95 {
		t.Errorf("Webex gallery CPU %.0f should not drop below full %.0f", wGal, wFull)
	}
	mFull := CPUPercent(platform.Meet, GalaxyS10, ScenarioLM)
	mGal := CPUPercent(platform.Meet, GalaxyS10, ScenarioLMView)
	if mGal < mFull*0.85 || mGal > mFull*1.15 {
		t.Errorf("Meet gallery CPU %.0f should match full %.0f", mGal, mFull)
	}
}

// Fig 19a: screen-off minimizes CPU for Zoom/Meet (25-60%) but Webex
// still burns ~125%.
func TestScreenOffCPU(t *testing.T) {
	for _, k := range []platform.Kind{platform.Zoom, platform.Meet} {
		cpu := CPUPercent(k, GalaxyS10, ScenarioLMOff)
		if cpu > 60 {
			t.Errorf("%s screen-off CPU = %.0f, want <= 60", k, cpu)
		}
	}
	w := CPUPercent(platform.Webex, GalaxyS10, ScenarioLMOff)
	if w < 100 {
		t.Errorf("Webex screen-off CPU = %.0f, want >= 100 (client inefficiency)", w)
	}
}

// Camera activation adds ~100% on S10 and ~50% on J3 (any client).
func TestCameraCost(t *testing.T) {
	for _, k := range platform.Kinds {
		s10 := CPUPercent(k, GalaxyS10, ScenarioLMVidView) - CPUPercent(k, GalaxyS10, ScenarioLMView)
		if s10 < 60 {
			t.Errorf("%s S10 camera cost = %.0f, want ~100 (soft cap may shrink it)", k, s10)
		}
		j3 := CPUPercent(k, GalaxyJ3, ScenarioLMVidView) - CPUPercent(k, GalaxyJ3, ScenarioLMView)
		if j3 <= 0 {
			t.Errorf("%s J3 camera cost = %.0f, want > 0", k, j3)
		}
		if j3 >= s10 {
			t.Errorf("%s camera cost J3 %.0f >= S10 %.0f (S10 has the better camera)", k, j3, s10)
		}
	}
}

// Finding-5: Meet is the most bandwidth-hungry (up to ~1 GB/h ≈ 2.2 Mbps);
// Zoom gallery needs only ~175 MB/h (~0.39 Mbps).
func TestDataRateBounds(t *testing.T) {
	meet := DataRateMbps(platform.Meet, GalaxyS10, ScenarioHM)
	if meet < 1.9 || meet > 2.5 {
		t.Errorf("Meet HM rate = %.2f Mbps, want ~2.1 (1 GB/h)", meet)
	}
	zg := DataRateMbps(platform.Zoom, GalaxyS10, ScenarioLMView)
	gbPerHour := zg * 3600 / 8 / 1000
	if gbPerHour < 0.10 || gbPerHour > 0.25 {
		t.Errorf("Zoom gallery = %.2f GB/h, want ~0.175", gbPerHour)
	}
}

// Fig 19b: only Webex adapts to the device class in full screen.
func TestWebexDeviceAdaptive(t *testing.T) {
	wS10 := DataRateMbps(platform.Webex, GalaxyS10, ScenarioHM)
	wJ3 := DataRateMbps(platform.Webex, GalaxyJ3, ScenarioHM)
	if wS10 < wJ3*1.5 {
		t.Errorf("Webex not device-adaptive: S10 %.2f vs J3 %.2f", wS10, wJ3)
	}
	mS10 := DataRateMbps(platform.Meet, GalaxyS10, ScenarioHM)
	mJ3 := DataRateMbps(platform.Meet, GalaxyJ3, ScenarioHM)
	if mS10 < mJ3*0.9 || mS10 > mJ3*1.1 {
		t.Errorf("Meet should ignore device class: %.2f vs %.2f", mS10, mJ3)
	}
}

// Screen-off scenarios carry only audio: 100-200 kbps.
func TestScreenOffRate(t *testing.T) {
	for _, k := range platform.Kinds {
		r := DataRateMbps(k, GalaxyJ3, ScenarioLMOff)
		if r < 0.08 || r > 0.22 {
			t.Errorf("%s screen-off rate = %.2f Mbps", k, r)
		}
	}
}

// Table 4: resource usage plateaus beyond the 4-tile UI limit.
func TestConferenceSizePlateau(t *testing.T) {
	for _, k := range platform.Kinds {
		for _, view := range []View{ViewFullScreen, ViewGallery} {
			sc6 := Scenario{Label: "N6", Feed: ScenarioHM.Feed, View: view, N: 6}
			sc11 := Scenario{Label: "N11", Feed: ScenarioHM.Feed, View: view, N: 11}
			r6 := DataRateMbps(k, GalaxyS10, sc6)
			r11 := DataRateMbps(k, GalaxyS10, sc11)
			if rel := (r11 - r6) / r6; rel > 0.10 || rel < -0.10 {
				t.Errorf("%s/%v rate N=6 %.2f vs N=11 %.2f: want plateau", k, view, r6, r11)
			}
			c6 := CPUPercent(k, GalaxyS10, sc6)
			c11 := CPUPercent(k, GalaxyS10, sc11)
			if rel := (c11 - c6) / c6; rel > 0.10 || rel < -0.10 {
				t.Errorf("%s/%v CPU N=6 %.0f vs N=11 %.0f: want plateau", k, view, c6, c11)
			}
		}
	}
}

// Table 4: gallery with extra participants doubles Zoom's rate vs N=3
// gallery; Webex's gallery rate *drops* with more participants.
func TestTable4GalleryShapes(t *testing.T) {
	z3 := DataRateMbps(platform.Zoom, GalaxyS10, ScenarioLMView)
	z6 := DataRateMbps(platform.Zoom, GalaxyS10, Scenario{Feed: ScenarioLMView.Feed, View: ViewGallery, N: 6})
	if z6 < z3*1.7 {
		t.Errorf("Zoom gallery rate should ~double with more tiles: %.2f -> %.2f", z3, z6)
	}
	w3 := DataRateMbps(platform.Webex, GalaxyS10, Scenario{Feed: ScenarioHM.Feed, View: ViewGallery, N: 3})
	w6 := DataRateMbps(platform.Webex, GalaxyS10, Scenario{Feed: ScenarioHM.Feed, View: ViewGallery, N: 6})
	if w6 >= w3 {
		t.Errorf("Webex gallery rate should drop with more tiles: %.2f -> %.2f", w3, w6)
	}
}

// Finding-5: one hour drains up to ~40% of the J3 battery with camera
// on, reduced to roughly half with screen off.
func TestBatteryFinding5(t *testing.T) {
	worst := 0.0
	for _, k := range platform.Kinds {
		if p := DischargePercent(k, GalaxyJ3, ScenarioLMVidView, 60); p > worst {
			worst = p
		}
	}
	if worst < 28 || worst > 48 {
		t.Errorf("worst-case 1h drain = %.0f%%, want ~40%%", worst)
	}
	for _, k := range platform.Kinds {
		on := DischargePercent(k, GalaxyJ3, ScenarioLM, 60)
		off := DischargePercent(k, GalaxyJ3, ScenarioLMOff, 60)
		if off > on*0.75 {
			t.Errorf("%s screen-off drain %.0f%% vs on %.0f%%: want big saving", k, off, on)
		}
	}
}

// Fig 19c: clients within ~10 percentage points of each other; Zoom
// gallery saves ~20% vs LM.
func TestBatteryClientSpread(t *testing.T) {
	var drains []float64
	for _, k := range platform.Kinds {
		drains = append(drains, DischargemAh(k, GalaxyJ3, ScenarioLM, 60))
	}
	lo, hi := drains[0], drains[0]
	for _, d := range drains {
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if (hi-lo)/lo > 0.35 {
		t.Errorf("battery spread across clients too wide: %v", drains)
	}
	zLM := DischargemAh(platform.Zoom, GalaxyJ3, ScenarioLM, 60)
	zGal := DischargemAh(platform.Zoom, GalaxyJ3, ScenarioLMView, 60)
	if zGal > zLM*0.92 {
		t.Errorf("Zoom gallery should save battery: %.0f vs %.0f", zGal, zLM)
	}
}

func TestCPUSamplesDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := CPUSamples(platform.Zoom, GalaxyJ3, ScenarioLM, 100, rng)
	if s.Len() != 100 {
		t.Fatal("sample count")
	}
	med := CPUPercent(platform.Zoom, GalaxyJ3, ScenarioLM)
	if got := s.Median(); got < med*0.9 || got > med*1.1 {
		t.Errorf("sample median %.0f vs model %.0f", got, med)
	}
	if s.Max() > float64(GalaxyJ3.Cores*100) {
		t.Error("sample exceeds hard core cap")
	}
}

func TestUnknownPlatformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	CPUPercent(platform.Kind("skype"), GalaxyS10, ScenarioLM)
}

func TestStrings(t *testing.T) {
	if HighEnd.String() == LowEnd.String() {
		t.Error("class strings")
	}
	if ScenarioLM.String() != "LM" {
		t.Error("scenario label")
	}
}

func TestViewStrings(t *testing.T) {
	for _, v := range []View{ViewFullScreen, ViewGallery, ViewScreenOff} {
		if v.String() == "" {
			t.Error("empty view string")
		}
	}
}
