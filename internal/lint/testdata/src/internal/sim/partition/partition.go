// Package partition stands in for the conservative-parallel partition
// layer, mirroring the real package's shape: long-lived worker goroutines
// spun up at construction, an atomic spin barrier (epoch / published
// window end / arrival counter), per-shard outboxes drained between
// windows, and channel operations — all of it the layer's subject matter,
// so nogoroutine skips the package entirely (no want comments — none of
// these operations may be reported).
package partition

import (
	"runtime"
	"sync/atomic"
)

// record mirrors the real cross-shard handoff record.
type record struct {
	at  int64
	src int
	seq uint64
}

// group mirrors the real coordinator: one worker goroutine per shard past
// the first, synchronized by atomics, outboxes with a single writer per
// window.
type group struct {
	out     [][][]record
	epoch   atomic.Uint64
	end     atomic.Int64
	arrived atomic.Int32
	stop    atomic.Bool
}

func newGroup(shards int) *group {
	g := &group{out: make([][][]record, shards)}
	for s := 1; s < shards; s++ {
		go g.worker(s)
	}
	return g
}

func (g *group) worker(s int) {
	seen := uint64(0)
	for {
		for g.epoch.Load() == seen {
			if g.stop.Load() {
				return
			}
			runtime.Gosched()
		}
		seen++
		_ = g.end.Load()
		g.arrived.Add(1)
	}
}

func (g *group) post(src, dst int, r record) {
	g.out[src][dst] = append(g.out[src][dst], r)
}

func (g *group) runWindow(end int64, shards int) {
	g.end.Store(end)
	g.epoch.Add(1)
	for g.arrived.Load() != int32(shards-1) {
		runtime.Gosched()
	}
	g.arrived.Store(0)
}

// exchange keeps the original channel-operation coverage: channels remain
// legal here even though the hot path is atomics.
func exchange() {
	ch := make(chan record, 1)
	ch <- record{}
	<-ch
	select {
	default:
	}
	close(ch)
}
