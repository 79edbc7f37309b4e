package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/qoe"
	"github.com/vcabench/vcabench/internal/simnet"
)

// TestForkedTestbedPoolIsolation proves a fork's network pools never
// cross forked testbeds. Four forks churn their packet/event pools
// concurrently while every pooled packet observed at delivery is
// recorded in a shared ownership map: a pool leak between forks would
// surface the same pointer under two fork keys (and, independently, as
// a data race under -race, since each fork's pool is unsynchronized by
// design — single-owner determinism is the whole point of not using
// sync.Pool). The encoder-side media.FramePool needs no cross-fork
// check beyond this: it is owned by one encoder, which is owned by one
// client, which lives inside exactly one fork. The QoE scorer's buffers
// are the one pool that does pass between forks, one fork at a time on
// one scheduler worker; TestSchedulerWorkerBuffersNeverShared checks
// that.
func TestForkedTestbedPoolIsolation(t *testing.T) {
	tb := NewTestbed(42)
	var (
		mu    sync.Mutex
		owner = make(map[*simnet.Packet]string)
	)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		key := fmt.Sprintf("pool-iso/%d", w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			stb := tb.Fork(key)
			a := stb.Net.AddNode(simnet.NodeConfig{Name: "a", Region: geo.USEast})
			b := stb.Net.AddNode(simnet.NodeConfig{Name: "b", Region: geo.USEast2})
			b.Bind(5, func(p *simnet.Packet) {
				mu.Lock()
				if prev, ok := owner[p]; ok && prev != key {
					t.Errorf("pooled packet %p seen in fork %s and fork %s", p, prev, key)
				}
				owner[p] = key
				mu.Unlock()
			})
			for i := 0; i < 500; i++ {
				pkt := stb.Net.NewPacket()
				pkt.To = simnet.Addr{Node: "b", Port: 5}
				pkt.Size = 100 + i%700
				if err := a.Send(pkt); err != nil {
					t.Error(err)
					return
				}
				stb.Sim.Run()
			}
		}()
	}
	wg.Wait()
	if len(owner) == 0 {
		t.Fatal("no pooled packets observed")
	}
}

// TestSchedulerWorkerBuffersNeverShared runs QoE units on three
// scheduler workers and marks, under a mutex, each fork's entry and exit
// on the qoe.Buffers its worker lent it: no Buffers may be held by two
// forks at once (under -race, a shared one would also race), the
// workers must reuse their Buffers from cell to cell, and every result
// must equal the same unit's result on a fork with a private pool.
func TestSchedulerWorkerBuffersNeverShared(t *testing.T) {
	const workers = 3
	tb := NewTestbed(42).SetParallelism(workers)
	kinds := []platform.Kind{platform.Zoom, platform.Webex, platform.Meet}
	study := func(stb *Testbed, i int) *QoEStudyResult {
		return RunQoEStudy(stb, kinds[i%len(kinds)], geo.USEast, QoEReceiverRegions(geo.ZoneUS, 1+i%2),
			media.MotionClass(i%2), TinyScale, QoEOpts{})
	}
	var (
		mu     sync.Mutex
		holder = make(map[*qoe.Buffers]string)
		served = make(map[*qoe.Buffers]int)
	)
	units := make([]Unit, 9)
	got := make([]*QoEStudyResult, len(units))
	for i := range units {
		i, key := i, fmt.Sprintf("bufs-iso/%d", i)
		units[i] = Unit{Key: key, Run: func(stb *Testbed) {
			b := stb.qoeBufs
			mu.Lock()
			if b == nil {
				t.Errorf("fork %s has no worker buffers", key)
			} else if prev, ok := holder[b]; ok {
				t.Errorf("buffers %p held by fork %s and fork %s at once", b, prev, key)
			}
			holder[b] = key
			served[b]++
			mu.Unlock()

			got[i] = study(stb, i)

			mu.Lock()
			delete(holder, b)
			mu.Unlock()
		}}
	}
	(&Scheduler{TB: tb}).Run(units)

	if len(served) > workers {
		t.Errorf("%d Buffers for %d workers, want one per worker", len(served), workers)
	}
	reused := false
	for _, n := range served {
		reused = reused || n > 1
	}
	if !reused {
		t.Error("no worker reused its Buffers for a second cell")
	}
	if tb.qoeBufs != nil || tb.Fork("x").qoeBufs != nil {
		t.Error("a testbed that is not a scheduler fork has worker buffers")
	}
	for i, u := range units {
		if want := study(tb.Fork(u.Key), i); !reflect.DeepEqual(got[i], want) {
			t.Errorf("unit %s: result on worker buffers differs from a private pool's", u.Key)
		}
	}
}
