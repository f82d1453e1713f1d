package ra

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"retrograde/internal/combine"
	"retrograde/internal/game"
)

// Concurrent is the shared-memory parallel engine: the wave driver (see
// Drive) on one goroutine per shard for the whole solve, with update
// batches carried over channels. It mirrors the distributed algorithm
// (same waves, same combining) but with the host's real cores, so it both
// validates the distributed engine and gives genuine wall-clock speedups
// for building real databases.
//
// The hot path is allocation-free in steady state: batch backing arrays
// are recycled between receiver and sender through a shared pool, and
// updates a worker addresses to itself are applied inline (the
// self-delivery fast path) instead of round-tripping through a combining
// buffer and channel.
type Concurrent struct {
	// Workers is the number of shards; 0 means GOMAXPROCS.
	Workers int
	// Batch is the number of updates combined into one channel send;
	// 0 means 256, 1 disables batching (the unbatched ablation).
	Batch int
	// Group is the block-cyclic partition group size; 0 means 1 (cyclic).
	Group uint64
	// Config selects the wave kernel (auto by default). Under the SWAR
	// kernel the transport carries run-encoded update batches (UpdateRun)
	// instead of individual updates.
	Config Config
}

// Name implements Engine.
func (c Concurrent) Name() string {
	return fmt.Sprintf("concurrent(p=%d,batch=%d)", c.workers(), c.batch())
}

func (c Concurrent) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Concurrent) batch() int {
	if c.Batch > 0 {
		return c.Batch
	}
	return 256
}

func (c Concurrent) group() uint64 {
	if c.Group > 0 {
		return c.Group
	}
	return 1
}

// waveMsg is one message on a worker's inbox: a batch of updates (scalar
// kernel), a batch of run-encoded updates (SWAR kernel), or the
// end-of-wave signal from one sender. The explicit done flag (rather than
// a nil-slice sentinel) means a legitimately empty batch can never be
// mistaken for end-of-wave.
type waveMsg struct {
	batch []Update
	runs  []UpdateRun
	done  bool
}

// waveWorker is one shard's Transport in the Concurrent engine: the
// worker itself plus the combining buffer, inbox and batch pool it shares
// with its peers. All fields are touched only by the goroutine driving
// the shard.
type waveWorker struct {
	me    int
	p     int
	w     *Worker
	inbox []chan waveMsg   // all inboxes; ours is inbox[me]
	free  chan []Update    // shared pool of recycled batch arrays
	rfree chan []UpdateRun // shared pool of recycled run arrays (SWAR)
	buf   *combine.Buffer[Update]
	rbuf  *combine.Buffer[UpdateRun] // run transport (SWAR kernel only)
	cap   int                        // batch capacity

	bar  *barrier
	done int // peers' end-of-wave signals seen this wave
}

func newWaveWorker(w *Worker, inbox []chan waveMsg, free chan []Update, rfree chan []UpdateRun, batch int, bar *barrier) *waveWorker {
	ww := &waveWorker{
		me:    w.ID(),
		p:     len(inbox),
		w:     w,
		inbox: inbox,
		free:  free,
		rfree: rfree,
		cap:   batch,
		bar:   bar,
	}
	if w.Kernel() == KernelSWAR {
		ww.rbuf = combine.MustNew(ww.p, batch, func(dst int, b []UpdateRun) {
			ww.post(dst, waveMsg{runs: b})
		})
		ww.rbuf.SetAlloc(ww.allocRuns)
	} else {
		ww.buf = combine.MustNew(ww.p, batch, func(dst int, b []Update) {
			ww.post(dst, waveMsg{batch: b})
		})
		ww.buf.SetAlloc(ww.alloc)
	}
	return ww
}

// alloc hands the combining buffer a recycled batch array when one is
// available, allocating only while the pool warms up.
func (ww *waveWorker) alloc() []Update {
	select {
	case b := <-ww.free:
		return b
	default:
		return make([]Update, 0, ww.cap)
	}
}

// recycle returns a consumed batch array to the pool (dropping it if the
// pool is full — the array is then ordinary garbage).
func (ww *waveWorker) recycle(b []Update) {
	select {
	case ww.free <- b[:0]:
	default:
	}
}

// allocRuns and recycleRuns are the run-array counterparts used by the
// SWAR transport.
func (ww *waveWorker) allocRuns() []UpdateRun {
	select {
	case b := <-ww.rfree:
		return b
	default:
		return make([]UpdateRun, 0, ww.cap)
	}
}

func (ww *waveWorker) recycleRuns(b []UpdateRun) {
	select {
	case ww.rfree <- b[:0]:
	default:
	}
}

// apply consumes one inbox message.
func (ww *waveWorker) apply(m waveMsg) {
	if m.done {
		ww.done++
		return
	}
	if m.runs != nil {
		for _, r := range m.runs {
			ww.w.ApplyRun(r)
		}
		ww.recycleRuns(m.runs)
		return
	}
	for _, u := range m.batch {
		ww.w.Apply(u)
	}
	ww.recycle(m.batch)
}

// post delivers a message to dst, draining our own inbox whenever the
// destination's is full. A blocked sender is therefore always a consuming
// receiver, which rules out send-cycle deadlock.
func (ww *waveWorker) post(dst int, m waveMsg) {
	for {
		select {
		case ww.inbox[dst] <- m:
			return
		case in := <-ww.inbox[ww.me]:
			ww.apply(in)
		}
	}
}

// Send implements Transport.
func (ww *waveWorker) Send(owner int, u Update) { ww.buf.Add(owner, u) }

// SendRun implements Transport.
func (ww *waveWorker) SendRun(owner int, r UpdateRun) { ww.rbuf.Add(owner, r) }

// Poll implements Transport: it consumes every message currently queued
// on our inbox.
func (ww *waveWorker) Poll() {
	for {
		select {
		case m := <-ww.inbox[ww.me]:
			ww.apply(m)
		default:
			return
		}
	}
}

// EndWave implements Transport: flush, signal end-of-wave to every peer,
// and consume the inbox until all peers have signalled. No peer sends
// next-wave traffic before the next barrier, so the count restarts here.
func (ww *waveWorker) EndWave() error {
	if ww.rbuf != nil {
		ww.rbuf.FlushAll()
	} else {
		ww.buf.FlushAll()
	}
	for dst := 0; dst < ww.p; dst++ {
		if dst != ww.me {
			ww.post(dst, waveMsg{done: true})
		}
	}
	for ww.done < ww.p-1 {
		ww.apply(<-ww.inbox[ww.me])
	}
	ww.done = 0
	return nil
}

// Barrier implements Transport.
func (ww *waveWorker) Barrier(count int) (bool, error) { return ww.bar.wait(count) }

// errAborted is what a barrier returns once a shard has failed.
var errAborted = errors.New("ra: solve aborted by a failed shard")

// barrier is the Concurrent engine's rendezvous between waves: a
// generation-counted barrier over all shards that ORs their counts.
type barrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	parties int
	arrived int
	any     bool // OR of this round's counts so far
	result  bool // outcome of the last completed round
	gen     uint64
	aborted bool
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond.L = &b.mu
	return b
}

func (b *barrier) wait(count int) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.any = b.any || count > 0
	if b.arrived++; b.arrived == b.parties {
		b.result, b.any, b.arrived = b.any, false, 0
		b.gen++
		b.cond.Broadcast()
		return b.result, nil
	}
	// A waiter's round cannot be overtaken: the next one needs it too.
	for gen := b.gen; gen == b.gen && !b.aborted; {
		b.cond.Wait()
	}
	if b.aborted {
		return false, errAborted
	}
	return b.result, nil
}

// abort releases every shard waiting at the barrier, now and later.
func (b *barrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Solve implements Engine.
func (c Concurrent) Solve(g game.Game) (*Result, error) {
	p := c.workers()
	part, err := NewPartition(g.Size(), p, c.group())
	if err != nil {
		return nil, err
	}
	workers := make([]*Worker, p)
	// Inboxes are buffered so that senders rarely block; post drains its
	// own inbox while blocked, so any buffer size is deadlock-free.
	inbox := make([]chan waveMsg, p)
	for i := range workers {
		workers[i], err = NewWorkerKernel(g, part, i, c.Config.Kernel)
		if err != nil {
			return nil, err
		}
		inbox[i] = make(chan waveMsg, 4*p)
	}
	// free is the shared emit/recycle pool of batch backing arrays;
	// after warm-up, waves move updates without allocating. Sized to hold
	// every array that can circulate at once (all inbox slots plus every
	// sender's partial per-destination batches), so recycles never drop.
	// Only the pool matching the resolved kernel ever circulates arrays.
	free := make(chan []Update, 5*p*p+p)
	rfree := make(chan []UpdateRun, 5*p*p+p)
	bar := newBarrier(p)
	waves := make([]int, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i, w := range workers {
		ww := newWaveWorker(w, inbox, free, rfree, c.batch(), bar)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if waves[i], errs[i] = Drive(w, ww, 0, false); errs[i] != nil {
				bar.abort()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, errAborted) {
			return nil, err
		}
	}
	return Assemble(g, workers, waves[0]), nil
}
