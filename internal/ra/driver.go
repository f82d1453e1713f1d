package ra

import (
	"sync"

	"retrograde/internal/game"
)

// The wave driver is the paper's algorithm written once. Every shard
// initialises its worker (or starts from restored state), then repeats
// level-synchronous waves: expand the frontier, hand each update to the
// shard that owns its target, and finish the wave's exchange. Waves stop
// once no shard has a frontier left; loop resolution and one result
// assembly follow. Engines differ only in how updates travel between
// shards — Concurrent over channels, package remote over a TCP mesh —
// and that difference lives behind Transport.

// expandChunk is how many queue positions a shard expands between polls
// of its transport, so incoming batches are consumed while expansion is
// in flight.
const expandChunk = 512

// Transport is one shard's link to its peers. Drive calls it only from
// the shard's own goroutine.
type Transport interface {
	// Send carries an update to the shard that owns its target; the
	// transport combines updates per owner and moves them in batches.
	Send(owner int, u Update)
	// SendRun is Send for a run-encoded update (SWAR kernel).
	SendRun(owner int, r UpdateRun)
	// Poll applies the traffic that has already arrived, without
	// blocking.
	Poll()
	// EndWave carries this shard's partial batches to their owners and
	// returns once every update addressed to this shard during the wave
	// has been applied.
	EndWave() error
	// Barrier returns once every shard has reached it, reporting whether
	// any shard passed a nonzero count: the summed frontier that decides
	// whether another wave runs.
	Barrier(count int) (bool, error)
}

// Drive runs one shard of a solve over t and returns the number of waves
// run. A fresh worker is initialised first; a restored one (restored is
// true) continues after the waves it has already run.
func Drive(w *Worker, t Transport, waves int, restored bool) (int, error) {
	if !restored {
		if _, err := w.Init(); err != nil {
			return 0, err
		}
	}
	// Bind the callbacks once so waves allocate nothing.
	apply, send, sendRun := w.Apply, t.Send, t.SendRun
	swar := w.Kernel() == KernelSWAR
	for {
		// Wave entry: every earlier wave is fully applied and this one
		// has not begun, so a transport may checkpoint here.
		more, err := t.Barrier(w.Pending())
		if err != nil {
			return waves, err
		}
		if !more {
			break
		}
		w.BeginWave()
		waves++
		for {
			var k int
			if swar {
				k = w.ExpandRuns(expandChunk, sendRun)
			} else {
				k = w.ExpandLocal(expandChunk, apply, send)
			}
			if k == 0 {
				break
			}
			t.Poll()
		}
		if err := t.EndWave(); err != nil {
			return waves, err
		}
	}
	// A last barrier, so no shard tears its links down while a peer is
	// still resolving.
	_, err := t.Barrier(int(w.ResolveLoops()))
	return waves, err
}

// Assemble builds the Result of a solve from its finished shards.
func Assemble(g game.Game, workers []*Worker, waves int) *Result {
	values := make([]game.Value, g.Size())
	loopBits := make([]uint64, (g.Size()+63)/64)
	stats := make([]WorkerStats, len(workers))
	var loops uint64
	var wg sync.WaitGroup
	for i, w := range workers {
		stats[i] = w.Stats
		loops += w.Stats.LoopResolved
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Fill(values)
		}()
	}
	// Shards share bitset words, so loop bits fill one shard at a time.
	for _, w := range workers {
		w.FillLoop(loopBits)
	}
	wg.Wait()
	return &Result{
		Values:        values,
		Waves:         waves,
		LoopPositions: loops,
		Loop:          loopBits,
		Workers:       stats,
		Kernel:        workers[0].Kernel().String(),
	}
}
