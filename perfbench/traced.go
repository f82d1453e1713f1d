package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"retrograde/internal/awari"
	"retrograde/internal/db"
	"retrograde/internal/game"
	"retrograde/internal/oocore"
	"retrograde/internal/ra"
	"retrograde/internal/remote"
	"retrograde/internal/server"
)

// tracedRun drives the public functions of each layer in-process and
// records a span at every call. Layers the workload does not exercise
// report 0. Spans are written to <work>/traces when the run ends.
func tracedRun(w workload, o options, work string, window time.Duration) (*outcome, error) {
	res := &outcome{metrics: map[string]float64{}}
	for _, m := range perLayer {
		res.metrics[m.name] = 0
	}
	tr := newTracer()
	var err error
	if w.serve {
		err = tracedServe(w, o, work, window, tr, res)
	} else {
		err = tracedBuild(w, work, tr, res)
	}
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	res.summary = append(res.summary, tr.report()...)
	res.summary = append(res.summary, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	return res, nil
}

// ladderRun is one in-process build of the workload's ladder.
type ladderRun struct {
	total, top, lower, save time.Duration
	lookups                 uint64
	values                  [][]game.Value
	topResult               *ra.Result
	bytesWritten            uint64
	// Set on the traced run only, around the top rung's solve.
	mesh              *remote.Report
	allocBytes, gcs   uint64
	heapPeak, rssPeak uint64
}

// solver returns the engine rabuild solves every rung with.
func (w workload) solver() ra.Engine {
	if w.engine == "tcp" {
		return remote.Engine{Workers: nproc(), Batch: 100}
	}
	return ra.Concurrent{Workers: nproc()}
}

// inProcessLadder solves rungs 0..w.stones in order and saves each as
// rabuild does. With a tracer it records a span per rung with the solve
// and the save as children, counts lower-rung lookups through a wrapped
// awari.Lookup, and samples the runtime around the top rung.
func inProcessLadder(w workload, dir string, tr *tracer, parent int) (*ladderRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lr := &ladderRun{values: make([][]game.Value, 0, w.stones+1)}
	var lookups atomic.Uint64
	lookup := func(n int, idx uint64) game.Value { return lr.values[n][idx] }
	if tr != nil {
		plain := lookup
		lookup = func(n int, idx uint64) game.Value {
			lookups.Add(1)
			return plain(n, idx)
		}
	}
	span := func(name string, p int) int {
		if tr == nil {
			return -1
		}
		return tr.begin(name, p)
	}
	end := func(id int) {
		if tr != nil {
			tr.end(id)
		}
	}
	start := time.Now()
	for n := 0; n <= w.stones; n++ {
		rung := span("ladder.rung."+strconv.Itoa(n), parent)
		slice, err := awari.NewSlice(rules, loop, n, lookup)
		if err != nil {
			return nil, err
		}
		engine := w.solver()
		top := n == w.stones
		var smp *sampler
		if top && tr != nil {
			smp = startSampler()
		}
		sp := span(solveSpanName(engine), rung)
		t0 := time.Now()
		var r *ra.Result
		if e, ok := engine.(remote.Engine); ok {
			r, lr.mesh, err = e.SolveDetailed(slice)
		} else {
			r, err = engine.Solve(slice)
		}
		d := time.Since(t0)
		end(sp)
		if smp != nil {
			lr.allocBytes, lr.gcs, lr.heapPeak, lr.rssPeak = smp.stop()
		}
		if err != nil {
			return nil, fmt.Errorf("rung %d: %w", n, err)
		}
		if top {
			lr.top, lr.topResult = d, r
		} else {
			lr.lower += d
		}
		lr.values = append(lr.values, r.Values)

		sv := span("db.save", rung)
		t0 = time.Now()
		t, err := db.Pack(slice.Name(), slice.ValueBits(), r.Values)
		if err == nil {
			err = t.Save(filepath.Join(dir, fmt.Sprintf("awari-%d.radb", n)))
		}
		lr.save += time.Since(t0)
		end(sv)
		if err != nil {
			return nil, fmt.Errorf("saving rung %d: %w", n, err)
		}
		end(rung)
	}
	lr.total = time.Since(start)
	lr.lookups = lookups.Load()
	for n := 0; n <= w.stones; n++ {
		st, err := os.Stat(filepath.Join(dir, fmt.Sprintf("awari-%d.radb", n)))
		if err != nil {
			return nil, err
		}
		lr.bytesWritten += uint64(st.Size())
	}
	return lr, nil
}

// report sets the ladder, db and runtime metrics of a traced ladder.
func (lr *ladderRun) report(m map[string]float64) {
	m["ladder.top_rung_s"] = lr.top.Seconds()
	m["ladder.lower_rungs_s"] = lr.lower.Seconds()
	m["ladder.lookups"] = float64(lr.lookups)
	var lower uint64
	for _, v := range lr.values[:len(lr.values)-1] {
		lower += uint64(len(v)) * 2 // game.Value is 16 bits
	}
	m["ladder.lower_rung_mib"] = float64(lower) / mib
	m["db.save_s"] = lr.save.Seconds()
	m["db.bytes_written"] = float64(lr.bytesWritten)
	m["runtime.alloc_mib"] = float64(lr.allocBytes) / mib
	m["runtime.heap_peak_mib"] = float64(lr.heapPeak) / mib
	m["runtime.gc_cycles"] = float64(lr.gcs)
}

func solveSpanName(e ra.Engine) string {
	if _, ok := e.(remote.Engine); ok {
		return "remote.SolveDetailed"
	}
	return "ra.Concurrent.Solve"
}

// sampler watches the Go heap and the process's resident set while a
// solve runs.
type sampler struct {
	stopc             chan struct{}
	wg                sync.WaitGroup
	alloc0, gc0       uint64
	heapPeak, rssPeak uint64
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/memory/classes/heap/objects:bytes"}

func readRuntime() (alloc, gcs, heap uint64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// rss returns the process's current resident set in bytes.
func rss() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseUint(f[1], 10, 64)
	return pages * uint64(os.Getpagesize())
}

func startSampler() *sampler {
	s := &sampler{stopc: make(chan struct{})}
	s.alloc0, s.gc0, _ = readRuntime()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			_, _, heap := readRuntime()
			s.heapPeak = max(s.heapPeak, heap)
			s.rssPeak = max(s.rssPeak, rss())
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the bytes allocated and GC cycles run
// since the start, and the peaks of heap objects and resident set.
func (s *sampler) stop() (alloc, gcs, heapPeak, rssPeak uint64) {
	close(s.stopc)
	s.wg.Wait()
	a, g, heap := readRuntime()
	return a - s.alloc0, g - s.gc0, max(s.heapPeak, heap), max(s.rssPeak, rss())
}

// tracedBuild measures a build workload layer by layer: the ladder
// in-process untraced (the baseline for the tracing overhead), then
// traced, then one ra.Worker driven phase by phase on the top rung, then
// the single-threaded baseline on the top rung, then (capStones) one
// rung out-of-core.
func tracedBuild(w workload, work string, tr *tracer, res *outcome) error {
	m := res.metrics
	plain, err := inProcessLadder(w, filepath.Join(work, "untraced"), nil, -1)
	if err != nil {
		return err
	}
	root := tr.begin("ladder.Build", -1)
	lr, err := inProcessLadder(w, filepath.Join(work, "traced"), tr, root)
	tr.end(root)
	if err != nil {
		return err
	}
	for _, dir := range []string{"untraced", "traced"} {
		bad, err := verifyLadder(filepath.Join(work, dir), w.stones)
		if err != nil {
			return err
		}
		res.attempted += uint64(w.stones + 1)
		res.failed += uint64(len(bad))
		res.summary = append(res.summary, bad...)
	}

	top, err := awari.NewSlice(rules, loop, w.stones, func(n int, idx uint64) game.Value { return lr.values[n][idx] })
	if err != nil {
		return err
	}
	if err := tracedWorker(top, w.kernel(), lr.topResult.Values, tr, res); err != nil {
		return err
	}
	var seq time.Duration
	var seqErr error
	tr.do("ra.Sequential.Solve", -1, func(int) {
		t0 := time.Now()
		_, seqErr = ra.Sequential{Config: ra.Config{Kernel: w.kernel()}}.Solve(top)
		seq = time.Since(t0)
	})
	if seqErr != nil {
		return seqErr
	}

	m["ra.seq_solve_s"] = seq.Seconds()
	m["ra.concurrent_solve_s"] = plain.top.Seconds()
	m["ra.parallel_efficiency"] = seq.Seconds() / (float64(nproc()) * plain.top.Seconds())
	m["ra.shard_imbalance"] = imbalance(lr.topResult.Workers)
	lr.report(m)
	m["trace.overhead_ratio"] = lr.total.Seconds() / plain.total.Seconds()
	if lr.mesh != nil {
		preds := lr.topResult.Totals().PredsGenerated
		m["remote.solve_s"] = lr.top.Seconds()
		m["remote.frames"] = float64(lr.mesh.Frames)
		m["remote.data_frames"] = float64(lr.mesh.DataFrames)
		m["remote.bytes"] = float64(lr.mesh.Bytes)
		m["remote.bytes_per_pred"] = ratio(float64(lr.mesh.Bytes), float64(preds))
		m["remote.shard_imbalance"] = imbalance(lr.topResult.Workers)
	}
	res.summary = append(res.summary, fmt.Sprintf("%s: in-process ladder %.3f s untraced, %.3f s traced; top rung %.3f s (%s), sequential %.3f s",
		w.name, plain.total.Seconds(), lr.total.Seconds(), lr.top.Seconds(), w.kernel(), seq.Seconds()))
	if w.capStones == 0 {
		return nil
	}
	// Keep only what the capped solve needs, so the resident set it
	// measures is the solve's, not the ladders built above.
	lower := append([][]game.Value(nil), lr.values[:w.capStones]...)
	return tracedCapped(w.capStones, lower, valueSum(lr.values[w.capStones]), work, tr, res)
}

// tracedCapped solves one rung with oocore.Engine.SolveDetailed, its
// resident state capped at capShare of the in-core state and the rungs
// below it answered from lower, and checks its values against want (the
// in-core engine's checksum). Freed heap is returned to the OS first, so
// the peak resident set is the solve's plus the harness's baseline.
func tracedCapped(stones int, lower [][]game.Value, want string, work string, tr *tracer, res *outcome) error {
	m := res.metrics
	g, err := awari.NewSlice(rules, loop, stones, func(n int, idx uint64) game.Value { return lower[n][idx] })
	if err != nil {
		return err
	}
	full, err := ra.InCoreStateBytes(g, ra.KernelAuto)
	if err != nil {
		return err
	}
	limit := uint64(float64(full) * capShare)
	e := oocore.Engine{MemLimit: limit, Dir: filepath.Join(work, "spill")}
	debug.FreeOSMemory()
	smp := startSampler()
	var r *ra.Result
	var sp oocore.SpillStats
	d := tr.do("oocore.SolveDetailed", -1, func(int) { r, sp, err = e.SolveDetailed(g) })
	_, _, _, rssPeak := smp.stop()
	if err != nil {
		return err
	}
	res.attempted++
	if valueSum(r.Values) != want {
		res.failed++
		res.summary = append(res.summary, "oocore values differ from the in-core engine's")
	}
	m["oocore.solve_s"] = d.Seconds()
	m["oocore.spilled"] = float64(sp.Spilled)
	m["oocore.reloaded"] = float64(sp.Reloaded)
	m["oocore.spill_mib_written"] = float64(sp.SpillBytesWritten) / mib
	m["oocore.spill_mib_read"] = float64(sp.SpillBytesRead) / mib
	m["oocore.prefetch_hit_ratio"] = ratio(float64(sp.PrefetchHits), float64(sp.Reloaded))
	m["oocore.write_stalls"] = float64(sp.WriteStalls)
	m["oocore.peak_resident_mib"] = float64(sp.PeakResidentBytes) / mib
	m["oocore.peak_pending_runs"] = float64(sp.PeakPendingRuns)
	m["oocore.rss_over_cap_mib"] = (float64(rssPeak) - float64(limit)) / mib
	res.summary = append(res.summary, fmt.Sprintf("oocore: rung %d capped at %d bytes (%.0f%% of %d) in %.3f s",
		stones, limit, capShare*100, full, d.Seconds()))
	return nil
}

// imbalance is max over mean of the shards' predecessor counts.
func imbalance(ws []ra.WorkerStats) float64 {
	var sum, hi float64
	for _, s := range ws {
		x := float64(s.PredsGenerated)
		sum += x
		hi = max(hi, x)
	}
	return ratio(hi, sum/float64(len(ws)))
}

// tracedWorker drives one ra.Worker over the whole top rung through its
// exported methods, phase by phase, under the workload's kernel, and
// checks its values against the engine's.
func tracedWorker(g game.Game, k ra.Kernel, want []game.Value, tr *tracer, res *outcome) error {
	m := res.metrics
	w, err := ra.NewWorkerKernel(g, ra.Cyclic(g.Size(), 1), 0, k)
	if err != nil {
		return err
	}
	root := tr.begin("ra.Worker", -1)
	defer tr.end(root)
	var initErr error
	initD := tr.do("ra.Worker.Init", root, func(int) { _, initErr = w.Init() })
	if initErr != nil {
		return initErr
	}
	waves := 0
	expandD := tr.do("ra.Worker.Expand", root, func(id int) {
		for w.BeginWave() > 0 {
			waves++
			if w.Kernel() == ra.KernelSWAR {
				w.ExpandRuns(0, nil)
			} else {
				w.ExpandLocal(0, w.Apply, nil)
			}
		}
	})
	loopsD := tr.do("ra.Worker.ResolveLoops", root, func(int) { w.ResolveLoops() })
	vals := make([]game.Value, g.Size())
	fillD := tr.do("ra.Worker.Fill", root, func(int) {
		w.Fill(vals)
		w.FillLoop(make([]uint64, (g.Size()+63)/64))
	})
	res.attempted++
	if valueSum(vals) != valueSum(want) {
		res.failed++
		res.summary = append(res.summary, "ra.Worker values differ from the engine's")
	}
	st := w.Stats
	m["ra.init_s"] = initD.Seconds()
	m["ra.expand_s"] = expandD.Seconds()
	m["ra.resolve_loops_s"] = loopsD.Seconds()
	m["ra.fill_s"] = fillD.Seconds()
	m["ra.waves"] = float64(waves)
	m["ra.preds_generated"] = float64(st.PredsGenerated)
	m["ra.updates_applied"] = float64(st.UpdatesApplied)
	m["ra.updates_stale"] = float64(st.UpdatesStale)
	m["ra.stale_ratio"] = ratio(float64(st.UpdatesStale), float64(st.UpdatesApplied))
	m["ra.init_pos_per_s"] = float64(st.Positions) / initD.Seconds()
	m["ra.expand_preds_per_s"] = float64(st.PredsGenerated) / expandD.Seconds()
	return nil
}

// tracedServe measures the serving tier layer by layer: the ladder is
// built in-process (traced), then the same stream and callers run
// against one backend directly, through the broker untraced, and
// through the broker with a span per batch; finally the shard cache is
// probed in-process with no network.
func tracedServe(w workload, o options, work string, window time.Duration, tr *tracer, res *outcome) error {
	m := res.metrics
	dir := filepath.Join(work, "ladder")
	root := tr.begin("ladder.Build", -1)
	lr, err := inProcessLadder(workload{stones: w.stones, engine: "concurrent"}, dir, tr, root)
	tr.end(root)
	if err != nil {
		return err
	}
	bad, err := verifyLadder(dir, w.stones)
	if err != nil {
		return err
	}
	res.attempted += uint64(w.stones + 1)
	res.failed += uint64(len(bad))
	res.summary = append(res.summary, bad...)
	lr.report(m)

	setup := tr.begin("fleet.setup", -1)
	s, err := startServe(w, o, dir)
	tr.end(setup)
	if err != nil {
		return err
	}
	defer s.close()
	st := s.st
	count := func(ls loopStats) {
		res.attempted += ls.queries
		res.failed += ls.failed
	}
	count(s.warm)

	part := window / 3
	direct, err := dialAll(s.f.backends[0].addr, nproc())
	if err != nil {
		return err
	}
	defer closeAll(direct)
	count(closedLoop(direct, st, time.Second, nil, -1)) // warm the direct path
	var dl loopStats
	tr.do("window.direct", -1, func(int) { dl = closedLoop(direct, st, part, nil, -1) })
	count(dl)

	be, bk := s.f.backends, []*proc{s.f.broker}
	beCPU0, err := fleetCPU(be)
	if err != nil {
		return err
	}
	brCPU0, err := fleetCPU(bk)
	if err != nil {
		return err
	}
	var bl loopStats
	tr.do("window.brokered", -1, func(int) { bl = closedLoop(s.clients, st, part, nil, -1) })
	count(bl)
	beCPU1, err := fleetCPU(be)
	if err != nil {
		return err
	}
	brCPU1, err := fleetCPU(bk)
	if err != nil {
		return err
	}
	var tl loopStats
	tr.do("window.brokered.traced", -1, func(id int) { tl = closedLoop(s.clients, st, part, tr, id) })
	count(tl)
	if len(dl.lat) == 0 || len(bl.lat) == 0 || len(tl.lat) == 0 {
		return fmt.Errorf("a serving window answered no batch")
	}

	m["server.direct_qps"] = dl.qps()
	m["server.direct_p50_us"] = quantile(dl.lat, 0.5)
	m["server.direct_p99_us"] = quantile(dl.lat, 0.99)
	m["server.cpu_us_per_query"] = (beCPU1 - beCPU0).Seconds() * 1e6 / float64(bl.queries)
	m["broker.cpu_us_per_query"] = (brCPU1 - brCPU0).Seconds() * 1e6 / float64(bl.queries)
	m["broker.hop_p50_us"] = quantile(bl.lat, 0.5) - quantile(dl.lat, 0.5)
	m["broker.hop_p99_us"] = quantile(bl.lat, 0.99) - quantile(dl.lat, 0.99)
	m["trace.overhead_ratio"] = bl.qps() / tl.qps()

	if err := scrapeFleet(s.f, append(direct, s.clients...), m); err != nil {
		return err
	}

	var probeNs float64
	var probeErr error
	tr.do("server.Cache.probe", -1, func(int) { probeNs, probeErr = probeCache(dir, st, res) })
	if probeErr != nil {
		return probeErr
	}
	m["server.probe_ns"] = probeNs
	res.summary = append(res.summary,
		fmt.Sprintf("serve: direct %.0f q/s p50 %.1f µs p99 %.1f µs (%d batches); brokered %.0f q/s p50 %.1f µs p99 %.1f µs (%d batches); traced %.0f q/s",
			dl.qps(), quantile(dl.lat, 0.5), quantile(dl.lat, 0.99), len(dl.lat),
			bl.qps(), quantile(bl.lat, 0.5), quantile(bl.lat, 0.99), len(bl.lat), tl.qps()))
	return nil
}

// scrapeFleet reads the backends' and the broker's counters, plus the
// callers' own client counters.
func scrapeFleet(f *fleet, clients []*server.Client, m map[string]float64) error {
	var hits, misses, loads, resident, overloads float64
	for _, be := range f.backends {
		var rows []shardInfo
		if err := getJSON(be.addr, "/shards", &rows); err != nil {
			return err
		}
		for _, r := range rows {
			hits += float64(r.Hits)
			misses += float64(r.Misses)
			loads += float64(r.Loads)
		}
		var sm struct {
			Server server.ServerMetrics `json:"server"`
		}
		if err := getJSON(be.addr, "/metrics", &sm); err != nil {
			return err
		}
		resident += float64(sm.Server.ResidentBytes)
		overloads += float64(sm.Server.Overloads)
	}
	m["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["server.cache_loads"] = loads
	m["server.resident_mib"] = resident / mib
	m["server.overloads"] = overloads

	var bm struct {
		Server struct {
			Overloads, Failovers, Unrouted uint64
		} `json:"server"`
		Backends []struct {
			Queries uint64
			Client  server.ClientStats
		} `json:"backends"`
	}
	if err := getJSON(f.broker.addr, "/metrics", &bm); err != nil {
		return err
	}
	m["broker.overloads"] = float64(bm.Server.Overloads)
	m["broker.failovers"] = float64(bm.Server.Failovers)
	m["broker.unrouted"] = float64(bm.Server.Unrouted)
	var sum, hi, retries, reconnects float64
	for _, b := range bm.Backends {
		q := float64(b.Queries)
		sum += q
		hi = max(hi, q)
		retries += float64(b.Client.Retries)
		reconnects += float64(b.Client.Reconnects)
	}
	m["broker.backend_imbalance"] = ratio(hi, sum/float64(len(bm.Backends)))
	for _, c := range clients {
		st := c.Stats()
		retries += float64(st.Retries)
		reconnects += float64(st.Reconnects)
	}
	m["client.retries"] = retries
	m["client.reconnects"] = reconnects
	return nil
}

// probeCache answers every query of the stream in-process through a warm
// Cache.AcquireAwari plus awari.BestMove, with no network, and returns
// the mean nanoseconds per query.
func probeCache(dir string, st *stream, res *outcome) (float64, error) {
	c, err := server.NewCache(dir, 0)
	if err != nil {
		return 0, err
	}
	// Load every shard before timing, as the warm fleet has.
	_, release, err := c.AcquireAwari(c.AwariMax())
	if err != nil {
		return 0, err
	}
	release()
	var n int
	var took time.Duration
	for bi, qs := range st.batches {
		for j, q := range qs {
			t0 := time.Now()
			lookup, release, err := c.AcquireAwari(q.Board.Stones())
			if err != nil {
				return 0, err
			}
			// As raserve answers a best-move query: the board's own value,
			// plus the best move from its children.
			v := lookup(q.Board.Stones(), awari.Rank(q.Board))
			awari.BestMove(rules, q.Board, lookup)
			release()
			took += time.Since(t0)
			n++
			res.attempted++
			if v != st.want[bi][j] {
				res.failed++
			}
		}
	}
	return float64(took.Nanoseconds()) / float64(n), nil
}
