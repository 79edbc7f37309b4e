// Package kit defines the storage a campaign worker lends, one study at
// a time, to every study it runs, so storage passes from cell to cell
// instead of being built for each and thrown away.
package kit

import (
	"github.com/vcabench/vcabench/internal/capture"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/qoe"
	"github.com/vcabench/vcabench/internal/rtp"
	"github.com/vcabench/vcabench/internal/simnet"
)

// Kit is one worker's storage. Each member has one owner on one
// goroutine at a time, comes back dirty, and is written before it is
// read, so what ran on a kit before never reaches a result. A nil
// member lends nothing: its consumer runs on private storage, and the
// zero Kit is all private.
type Kit struct {
	// QoE is the scorer's float buffers (qoe.NewScorerOn).
	QoE *qoe.Buffers
	// Frames is a QoE host's frame pixel storage: its motion source's
	// frames and background, its encoder's reconstructions and
	// resize-ladder transients (client.Config).
	Frames *media.FramePool
	// Capture is the clients' trace records and RTP header chunks.
	Capture *capture.Store
	// Packets is the RTP packets the clients send.
	Packets *rtp.Store
	// Sim is the simulator's events, its network's packets and the
	// random generators it lends (simnet.NewSimOn, simnet.Sim.Rand):
	// the network's and platforms' streams, the clients' motion
	// sources, encoders and audio decoders, and a study's speech clip.
	Sim *simnet.Store
}

// New returns a kit whose every member is new and empty.
func New() Kit {
	return Kit{qoe.NewBuffers(), media.NewFramePool(), capture.NewStore(), rtp.NewStore(), simnet.NewStore()}
}
