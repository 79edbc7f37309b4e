// Realudp demonstrates that the measurement pipeline is transport-
// agnostic: it runs the Fig-2 flash pattern over *real* UDP sockets on
// the loopback interface (a relay with artificial forwarding delay
// standing in for a service endpoint), captures both sides into the same
// trace format the simulator uses, and extracts streaming lag with the
// identical burst-matching analysis.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/vcabench/vcabench/internal/capture"
	"github.com/vcabench/vcabench/internal/realnet"
)

const (
	relayDelay = 40 * time.Millisecond // one-way "propagation"
	flashEvery = 1 * time.Second
	flashPkts  = 5
	flashSize  = 900
	runFor     = 8 * time.Second
)

func main() {
	relay, err := realnet.ListenRelay("127.0.0.1:0", relayDelay)
	if err != nil {
		log.Fatal(err)
	}
	defer relay.Close()

	sender, err := realnet.Dial(relay.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer sender.Close()
	receiver, err := realnet.Dial(relay.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer receiver.Close()
	if err := sender.Join(); err != nil {
		log.Fatal(err)
	}
	if err := receiver.Join(); err != nil {
		log.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)

	// Records keep wall-clock nanoseconds, not time.Now's monotonic
	// reading, so a clock step during the run would show in the lags.
	sentTrace := capture.NewTrace("sender")
	recvTrace := capture.NewTrace("receiver")
	senderEP := capture.Endpoint{IP: capture.IPv4{127, 0, 0, 1}, Port: uint16(sender.LocalAddr().Port)}
	recvEP := capture.Endpoint{IP: capture.IPv4{127, 0, 0, 1}, Port: uint16(receiver.LocalAddr().Port)}
	relayEP := capture.Endpoint{IP: capture.IPv4{127, 0, 0, 1}, Port: uint16(relay.Addr().Port)}

	// Receiver loop: capture arrivals.
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(runFor + time.Second)
		for time.Now().Before(deadline) {
			payload, _, err := receiver.Recv(500 * time.Millisecond)
			if err != nil {
				continue
			}
			recvTrace.Add(capture.Record{
				UnixNano: time.Now().UnixNano(), Dir: capture.In,
				Src: relayEP, Dst: recvEP, Len: len(payload),
			})
		}
	}()

	// Sender loop: keepalives plus periodic flash bursts.
	start := time.Now()
	payload := make([]byte, flashSize)
	keepalive := make([]byte, 50)
	for time.Since(start) < runFor {
		// Flash burst.
		for i := 0; i < flashPkts; i++ {
			if err := sender.Send(payload); err != nil {
				log.Fatal(err)
			}
			sentTrace.Add(capture.Record{
				UnixNano: time.Now().UnixNano(), Dir: capture.Out,
				Src: senderEP, Dst: relayEP, Len: flashSize,
			})
		}
		// Quiet period with keepalives.
		quiet := time.Now().Add(flashEvery)
		for time.Now().Before(quiet) {
			sender.Send(keepalive)
			sentTrace.Add(capture.Record{
				UnixNano: time.Now().UnixNano(), Dir: capture.Out,
				Src: senderEP, Dst: relayEP, Len: len(keepalive),
			})
			time.Sleep(100 * time.Millisecond)
		}
	}
	<-done

	cfg := capture.BurstConfig{BigBytes: 200, MinQuiet: 500 * time.Millisecond}
	lags := capture.Lags(sentTrace, recvTrace, cfg, time.Second)
	fmt.Printf("relay forwarded %d datagrams with %v artificial delay\n", relay.Forwarded(), relayDelay)
	fmt.Printf("flash bursts matched: %d\n", len(lags))
	if len(lags) == 0 {
		log.Fatal("no lag samples — loopback too slow?")
	}
	var sum time.Duration
	for _, l := range lags {
		sum += l
	}
	mean := sum / time.Duration(len(lags))
	fmt.Printf("measured streaming lag: mean %v (expected >= %v)\n",
		mean.Round(100*time.Microsecond), relayDelay)
}
