// Package mobile models the Android measurement rig of paper §5: the two
// Samsung devices of Table 2, their CPU usage, download data rate and
// battery discharge across videoconferencing scenarios (Fig 19, Table 4).
//
// What the paper measured on hardware is replaced here by a component
// model: client CPU decomposes into a UI/compositing base, a rate-driven
// decode cost, camera-capture and audio-pipeline costs, with per-device
// efficiency and saturation; battery power decomposes into SoC, screen,
// camera and radio components integrated by a Monsoon-style meter. Data
// rates are the platforms' mobile delivery policies (per device, view and
// participant count), which the paper observed from pcap traces; they are
// encoded as policy tables because they are *inputs* to the resource
// model, not outputs of it.
package mobile

import (
	"fmt"
	"math/rand"

	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/stats"
)

// DeviceClass partitions devices as the paper does.
type DeviceClass int

const (
	HighEnd DeviceClass = iota
	LowEnd
)

func (c DeviceClass) String() string {
	if c == HighEnd {
		return "high-end"
	}
	return "low-end"
}

// Device is an Android measurement target (paper Table 2).
type Device struct {
	Name           string
	Class          DeviceClass
	AndroidVersion int
	Cores          int
	MemoryGB       int
	ScreenW        int
	ScreenH        int
	BatterymAh     float64
	NominalVolts   float64
	CameraMP       float64
	// Efficiency scales CPU cost relative to the S10's cores (bigger =
	// slower cores burn more utilization for the same work).
	Efficiency float64
	// SoftCapCPU is where the device's scheduler/thermal envelope starts
	// flattening utilization growth.
	SoftCapCPU float64
}

// The two devices of Table 2.
var (
	GalaxyS10 = Device{
		Name: "Galaxy S10", Class: HighEnd, AndroidVersion: 11,
		Cores: 8, MemoryGB: 8, ScreenW: 1440, ScreenH: 3040,
		BatterymAh: 3400, NominalVolts: 3.85, CameraMP: 10,
		Efficiency: 1.0, SoftCapCPU: 600,
	}
	GalaxyJ3 = Device{
		Name: "Galaxy J3", Class: LowEnd, AndroidVersion: 8,
		Cores: 4, MemoryGB: 2, ScreenW: 720, ScreenH: 1280,
		BatterymAh: 2600, NominalVolts: 3.85, CameraMP: 5,
		Efficiency: 1.25, SoftCapCPU: 210,
	}
)

// Devices lists the rig in paper order.
var Devices = []Device{GalaxyS10, GalaxyJ3}

// View is the client's layout setting.
type View int

const (
	ViewFullScreen View = iota // one remote stream fills the screen
	ViewGallery                // up to four equal tiles
	ViewScreenOff              // screen off, audio only
)

func (v View) String() string {
	switch v {
	case ViewFullScreen:
		return "fullscreen"
	case ViewGallery:
		return "gallery"
	case ViewScreenOff:
		return "screen-off"
	}
	return fmt.Sprintf("View(%d)", int(v))
}

// MaxVisibleTiles is how many participant videos any of the three clients
// renders at once (§5: "show videos for up to four concurrent
// participants" — the reason resource usage plateaus beyond N=5).
const MaxVisibleTiles = 4

// Scenario is one mobile experiment condition (Fig 19 labels).
type Scenario struct {
	Label    string
	Feed     media.MotionClass
	View     View
	CameraOn bool
	// N is the conference size including the streaming cloud VMs
	// (Fig 19 uses N=3: one host VM plus the two devices).
	N int
}

// The five Fig-19 scenarios.
var (
	ScenarioLM        = Scenario{Label: "LM", Feed: media.LowMotion, View: ViewFullScreen, N: 3}
	ScenarioHM        = Scenario{Label: "HM", Feed: media.HighMotion, View: ViewFullScreen, N: 3}
	ScenarioLMView    = Scenario{Label: "LM-View", Feed: media.LowMotion, View: ViewGallery, N: 3}
	ScenarioLMVidView = Scenario{Label: "LM-Video-View", Feed: media.LowMotion, View: ViewGallery, CameraOn: true, N: 3}
	ScenarioLMOff     = Scenario{Label: "LM-Off", Feed: media.LowMotion, View: ViewScreenOff, N: 3}
)

// StandardScenarios is the Fig-19 scenario set in presentation order.
var StandardScenarios = []Scenario{ScenarioLM, ScenarioHM, ScenarioLMView, ScenarioLMVidView, ScenarioLMOff}

func (s Scenario) String() string { return s.Label }

// clientModel captures per-platform client behavior on Android.
type clientModel struct {
	// uiBase is compositing/UI CPU with the screen on.
	uiBase float64
	// decodePerMbps converts incoming video rate into decode CPU.
	decodePerMbps float64
	// audioCPU is the pipeline cost with the screen off.
	audioCPU float64
	// galleryExtra is added in gallery view (Webex's inefficiency).
	galleryExtra float64
	// opportunistic is extra CPU grabbed when the device has headroom
	// (Meet on the S10).
	opportunistic float64
	// backgroundBufferCPU is spent pre-buffering hidden streams for
	// fast view switching (Zoom, §5 Table 4 discussion), per extra
	// participant beyond 3, in full-screen mode.
	backgroundBufferCPU float64
}

func modelFor(k platform.Kind) clientModel {
	switch k {
	case platform.Zoom:
		return clientModel{uiBase: 80, decodePerMbps: 90, audioCPU: 38, backgroundBufferCPU: 4}
	case platform.Webex:
		// Webex's cost sits in the client pipeline itself (the paper
		// notes its failure to scale down with device settings), not in
		// rate-proportional decode.
		return clientModel{uiBase: 120, decodePerMbps: 32, audioCPU: 125, galleryExtra: 60}
	case platform.Meet:
		return clientModel{uiBase: 90, decodePerMbps: 55, audioCPU: 42, opportunistic: 22}
	}
	panic(fmt.Sprintf("mobile: unknown platform %q", k))
}

// DataRateMbps returns the client's average download data rate for a
// scenario — the platform's mobile delivery policy (Fig 19b, Table 4).
func DataRateMbps(k platform.Kind, d Device, sc Scenario) float64 {
	if sc.View == ViewScreenOff {
		// Audio only (plus control): 100-200 kbps depending on codec.
		switch k {
		case platform.Zoom:
			return 0.11
		case platform.Webex:
			return 0.10
		default:
			return 0.16
		}
	}
	n := sc.N
	if n < 3 {
		n = 3
	}
	gallery := sc.View == ViewGallery
	low := d.Class == LowEnd
	var rate float64
	switch k {
	case platform.Zoom:
		// Sticks near its default rate; gallery halves it at small N but
		// extra tiles push it back up (more streams to fetch).
		switch {
		case !gallery && n <= 3:
			rate = pick(low, 0.90, 0.85)
		case !gallery:
			rate = pick(low, 0.95, 0.92)
		case n <= 3:
			rate = pick(low, 0.37, 0.33)
		default:
			rate = pick(low, 0.74, 0.72)
		}
	case platform.Webex:
		// Truly device-adaptive full-screen rate; gallery is lower and
		// degrades further with more participants.
		switch {
		case !gallery:
			rate = pick(low, 0.90, 1.76)
		case n <= 3:
			rate = pick(low, 0.59, 0.57)
		default:
			rate = pick(low, 0.45, 0.46)
		}
	case platform.Meet:
		// Ignores both device class and view; grows slightly with N
		// (thumbnail previews stay visible even in full screen).
		switch {
		case n <= 3:
			rate = pick(low, 2.13, 2.08)
		default:
			rate = pick(low, 2.30, 2.20)
		}
	default:
		panic(fmt.Sprintf("mobile: unknown platform %q", k))
	}
	// Motion: low motion is more compressible for every client, least
	// so for Zoom (Fig 19b).
	if sc.Feed == media.LowMotion && sc.View == ViewFullScreen {
		switch k {
		case platform.Zoom:
			rate *= 0.95
		case platform.Webex:
			rate *= 0.96
		case platform.Meet:
			rate *= 0.92
		}
	}
	// A device camera adds the peer device's upload to this client's
	// download in gallery (it renders the peer's tile).
	if sc.CameraOn && gallery && low {
		rate += 0.70 // the S10's higher-quality camera stream
	} else if sc.CameraOn && gallery {
		rate += 0.45 // the J3's dimmer, lower-quality stream
	}
	return rate
}

func pick(cond bool, a, b float64) float64 {
	if cond {
		return a
	}
	return b
}

// CPUPercent returns the median CPU utilization (100% = one core) for a
// scenario.
func CPUPercent(k platform.Kind, d Device, sc Scenario) float64 {
	m := modelFor(k)
	var cpu float64
	if sc.View == ViewScreenOff {
		cpu = m.audioCPU
	} else {
		rate := DataRateMbps(k, d, sc)
		decode := rate * m.decodePerMbps
		if sc.View == ViewGallery && k == platform.Zoom {
			// Zoom's gallery decodes four small tiles, cheaper per bit.
			decode *= 0.9
		}
		cpu = m.uiBase + decode
		if sc.View == ViewGallery {
			cpu += m.galleryExtra
		}
		if k == platform.Meet && d.Class == HighEnd {
			cpu += m.opportunistic
		}
		if sc.View == ViewFullScreen && sc.N > 3 && m.backgroundBufferCPU > 0 {
			cpu += float64(m.backgroundBufferCPU * float64(min(sc.N, 3+MaxVisibleTiles)-3))
		}
	}
	if sc.CameraOn {
		if d.Class == HighEnd {
			cpu += 100 // 10 MP HDR pipeline
		} else {
			cpu += 50
		}
	}
	cpu = float64(cpu * d.Efficiency)
	// Soft saturation at the device's envelope.
	if cpu > d.SoftCapCPU {
		cpu = d.SoftCapCPU + float64((cpu-d.SoftCapCPU)*0.1)
	}
	hardCap := float64(d.Cores * 100)
	if cpu > hardCap {
		cpu = hardCap
	}
	return cpu
}

// CPUSamples produces n utilization samples (the paper samples every 3 s)
// around the scenario's median, with measurement noise.
func CPUSamples(k platform.Kind, d Device, sc Scenario, n int, rng *rand.Rand) *stats.Sample {
	med := CPUPercent(k, d, sc)
	s := stats.NewSample(n)
	for i := 0; i < n; i++ {
		v := med + float64(rng.NormFloat64()*med*0.06)
		if v < 5 {
			v = 5
		}
		if hc := float64(d.Cores * 100); v > hc {
			v = hc
		}
		s.Add(v)
	}
	return s
}

// Power-model constants (watts).
const (
	pIdle      = 0.55 // baseline platform power in a call
	pCallPath  = 0.50 // mic/speaker/DSP audio path
	pPerCore   = 0.70 // per 100% CPU
	pScreen    = 0.72 // screen on (J3-sized panel)
	pCamera    = 0.80 // camera capture pipeline
	pRadioBase = 0.25 // WiFi active
	pPerMbps   = 0.11 // marginal radio cost
)

// PowerWatts estimates average device power draw in a scenario.
func PowerWatts(k platform.Kind, d Device, sc Scenario) float64 {
	cpu := CPUPercent(k, d, sc) / 100
	rate := DataRateMbps(k, d, sc)
	p := pIdle + pCallPath + float64(pPerCore*cpu) + pRadioBase + float64(pPerMbps*rate)
	if sc.View != ViewScreenOff {
		p += pScreen
	}
	if sc.CameraOn {
		p += pCamera
	}
	return p
}

// DischargemAh integrates power over a call of the given minutes into
// battery charge consumed (what the Monsoon meter reports).
func DischargemAh(k platform.Kind, d Device, sc Scenario, minutes float64) float64 {
	w := PowerWatts(k, d, sc)
	amps := w / d.NominalVolts
	return amps * minutes / 60 * 1000
}

// DischargePercent converts a call's discharge into battery percentage.
func DischargePercent(k platform.Kind, d Device, sc Scenario, minutes float64) float64 {
	return DischargemAh(k, d, sc, minutes) / d.BatterymAh * 100
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
