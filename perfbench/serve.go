package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"retrograde/internal/awari"
	"retrograde/internal/game"
	"retrograde/internal/server"
)

// poolBatches is how many distinct batches a run pre-generates; the
// closed loop cycles through them, so generating queries costs the
// timed window nothing. The serving tier keeps no answer cache, so a
// repeated batch costs it what a fresh one does.
const poolBatches = 8192

// stream is the serve workload's query stream with the answer each
// query must get.
type stream struct {
	batches [][]server.Query
	want    [][]game.Value
}

// newStream derives poolBatches batches from the seed exactly as
// raload's generator does: batch i from seed and i alone, boards drawn
// from rungs 1..stones weighted by rung size. Expected values come from
// the local ladder.
func newStream(seed int64, stones, batch int, lookup awari.Lookup) *stream {
	cum := make([]uint64, stones+1) // cum[r] = positions in rungs 1..r
	for r := 1; r <= stones; r++ {
		cum[r] = cum[r-1] + awari.Size(r)
	}
	st := &stream{batches: make([][]server.Query, poolBatches), want: make([][]game.Value, poolBatches)}
	var pits [awari.Pits]int
	for i := range st.batches {
		rng := rand.New(rand.NewSource(seed + int64(i)*0x6a09e667f3bcc909))
		qs := make([]server.Query, batch)
		want := make([]game.Value, batch)
		for j := range qs {
			x := uint64(rng.Int63n(int64(cum[stones])))
			r := 1
			for cum[r] <= x {
				r++
			}
			idx := x - cum[r-1]
			awari.Space(r).Unrank(idx, pits[:])
			var b awari.Board
			for k, c := range pits {
				b[k] = int8(c)
			}
			qs[j] = server.Query{Kind: server.KindBestMove, Board: b}
			want[j] = lookup(r, idx)
		}
		st.batches[i], st.want[i] = qs, want
	}
	return st
}

// slice is the length of the intervals a closed-loop window is split
// into: rates are reported as the median over whole slices, so a stall
// of the shared host in one slice does not move them.
const slice = time.Second

// loopStats is what one closed-loop window observed.
type loopStats struct {
	lat      []float64 // per-batch latency in µs, sorted
	queries  uint64    // queries sent
	answered uint64    // queries answered with the right value
	failed   uint64    // transport errors, per-query errors and wrong values
	elapsed  time.Duration
	// Per whole slice of the window: batches completed and queries
	// answered with the right value.
	sliceBatches, sliceAnswered []uint64
}

func (s loopStats) qps() float64 { return float64(s.answered) / s.elapsed.Seconds() }

// closedLoop runs one caller per client, each sending its next batch
// only after the previous reply, for dur. Every answer is checked. When
// tr is non-nil each batch is also recorded as a span under parent.
func closedLoop(clients []*server.Client, st *stream, dur time.Duration, tr *tracer, parent int) loopStats {
	var next atomic.Int64
	type callerStats struct {
		lat                       []float64
		queries, answered, failed uint64
		batches, good             []uint64 // per slice
	}
	per := make([]callerStats, len(clients))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(cs *callerStats, c *server.Client) {
			defer wg.Done()
			cs.lat = make([]float64, 0, 1<<15)
			for time.Now().Before(deadline) {
				i := int(next.Add(1)-1) % poolBatches
				qs, want := st.batches[i], st.want[i]
				sp := -1
				if tr != nil {
					sp = tr.begin("client.batch", parent)
				}
				t0 := time.Now()
				as, err := c.Do(qs)
				t1 := time.Now()
				if tr != nil {
					tr.end(sp)
				}
				cs.queries += uint64(len(qs))
				if err != nil {
					cs.failed += uint64(len(qs))
					continue
				}
				cs.lat = append(cs.lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
				k := int(t1.Sub(start) / slice)
				for len(cs.batches) <= k {
					cs.batches, cs.good = append(cs.batches, 0), append(cs.good, 0)
				}
				cs.batches[k]++
				for j, a := range as {
					if a.Err != "" || a.Value != want[j] {
						cs.failed++
					} else {
						cs.answered++
						cs.good[k]++
					}
				}
			}
		}(&per[ci], c)
	}
	wg.Wait()
	s := loopStats{elapsed: time.Since(start)}
	whole := int(dur / slice)
	s.sliceBatches, s.sliceAnswered = make([]uint64, whole), make([]uint64, whole)
	for _, cs := range per {
		s.lat = append(s.lat, cs.lat...)
		s.queries += cs.queries
		s.answered += cs.answered
		s.failed += cs.failed
		for k := 0; k < whole && k < len(cs.batches); k++ {
			s.sliceBatches[k] += cs.batches[k]
			s.sliceAnswered[k] += cs.good[k]
		}
	}
	sort.Float64s(s.lat)
	return s
}

// proc is one fleet process.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string
	out  *lineWatch
}

// lineWatch is a child's stdout: it reports the address from the
// "listening on <addr>" line and discards the rest.
type lineWatch struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string
	sent bool
}

func (l *lineWatch) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sent {
		return len(p), nil
	}
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			break
		}
		line := string(l.buf[:i])
		l.buf = l.buf[i+1:]
		if rest, ok := strings.CutPrefix(line, "listening on "); ok {
			l.addr <- strings.Fields(rest)[0]
			l.sent = true
			l.buf = nil
			break
		}
	}
	return len(p), nil
}

func startProc(name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, out: &lineWatch{addr: make(chan string, 1)}}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout = p.out
	p.cmd.Stderr = os.Stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	select {
	case p.addr = <-p.out.addr:
		return p, nil
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not report its address within 30s", name)
	}
}

// stop drains the process with SIGTERM, killing it if it has not
// exited within ten seconds, and waits for it.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// cpu returns the process's user plus system CPU time so far.
func (p *proc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 Hz).
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	u, err1 := strconv.ParseUint(f[11], 10, 64)
	s, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for %s", p.name)
	}
	return time.Duration(u+s) * 10 * time.Millisecond, nil
}

// hwm returns the process's peak resident set (VmHWM) in bytes.
func (p *proc) hwm() (uint64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// fleet is the serving tier: raserve backends behind one rabroker.
type fleet struct {
	backends []*proc
	broker   *proc
}

func (f *fleet) procs() []*proc {
	ps := append([]*proc(nil), f.backends...)
	if f.broker != nil {
		ps = append(ps, f.broker)
	}
	return ps
}

func (f *fleet) stop() {
	for _, p := range f.procs() {
		p.stop()
	}
}

// startFleet launches the backends on the ladder in dir, then the
// broker, and returns once the broker reports every backend healthy.
func startFleet(bin, dir string, backends int) (*fleet, error) {
	f := &fleet{}
	var addrs []string
	for i := 0; i < backends; i++ {
		p, err := startProc(fmt.Sprintf("raserve-%d", i), filepath.Join(bin, "raserve"), "-db", dir, "-listen", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, p)
		addrs = append(addrs, p.addr)
	}
	br, err := startProc("rabroker", filepath.Join(bin, "rabroker"), "-backends", strings.Join(addrs, ","), "-listen", "127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.broker = br
	deadline := time.Now().Add(30 * time.Second)
	for {
		var b struct {
			Backends []struct{ Healthy bool } `json:"backends"`
		}
		if err := getJSON(br.addr, "/backends", &b); err == nil {
			up := 0
			for _, be := range b.Backends {
				if be.Healthy {
					up++
				}
			}
			if up == backends {
				return f, nil
			}
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("broker did not see %d healthy backends within 30s", backends)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

func getJSON(addr, path string, v any) error {
	resp, err := httpClient.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s%s: %s", addr, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// shardInfo is the part of raserve's /shards rows the benchmark reads.
type shardInfo struct {
	Key    string
	Loaded bool
	Hits   uint64
	Misses uint64
	Loads  uint64
}

// loadedShards returns the rung shards a backend holds in core.
func loadedShards(addr string) (map[string]bool, error) {
	var rows []shardInfo
	if err := getJSON(addr, "/shards", &rows); err != nil {
		return nil, err
	}
	m := map[string]bool{}
	for _, r := range rows {
		if r.Loaded {
			m[r.Key] = true
		}
	}
	return m, nil
}

// warmUp drives the closed loop until every backend holds in core every
// rung up to the highest one routed to it (top[b] for backend b), then
// for a further settling second so heaps and connections reach their
// steady state.
func warmUp(f *fleet, clients []*server.Client, st *stream, top []int) (loopStats, error) {
	const step, settle = 100 * time.Millisecond, time.Second
	deadline := time.Now().Add(60 * time.Second)
	var total loopStats
	add := func(s loopStats) {
		total.queries += s.queries
		total.failed += s.failed
	}
	for ready := false; !ready; {
		add(closedLoop(clients, st, step, nil, -1))
		ready = true
		for i, be := range f.backends {
			have, err := loadedShards(be.addr)
			if err != nil {
				return total, err
			}
			for n := 0; n <= top[i]; n++ {
				ready = ready && have[fmt.Sprintf("awari-%d", n)]
			}
		}
		if !ready && time.Now().After(deadline) {
			return total, fmt.Errorf("shards not all loaded after 60s of warm-up")
		}
	}
	add(closedLoop(clients, st, settle, nil, -1))
	return total, nil
}

// topRungs returns, per backend, the highest rung the broker routes to
// it (its ring owner's rungs and the replicated ones). Answering a board
// of n stones loads rungs 0..n, so a warm backend holds 0..top.
func topRungs(f *fleet, stones int) ([]int, error) {
	var b struct {
		Placement map[string]string `json:"placement"`
	}
	if err := getJSON(f.broker.addr, "/backends", &b); err != nil {
		return nil, err
	}
	top := make([]int, len(f.backends))
	for i, be := range f.backends {
		for n := 1; n <= stones; n++ {
			owner := b.Placement[fmt.Sprintf("awari-%d", n)]
			if owner == be.addr || strings.HasPrefix(owner, "all") {
				top[i] = n
			}
		}
	}
	return top, nil
}

func dialAll(addr string, n int) ([]*server.Client, error) {
	var cs []*server.Client
	for i := 0; i < n; i++ {
		c, err := server.DialConfig(addr, server.ClientConfig{Retries: 1, Timeout: 10 * time.Second})
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*server.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// fleetCPU sums the CPU time of the processes.
func fleetCPU(ps []*proc) (time.Duration, error) {
	var t time.Duration
	for _, p := range ps {
		c, err := p.cpu()
		if err != nil {
			return 0, err
		}
		t += c
	}
	return t, nil
}

// buildLadder runs the build workload's rabuild into dir and checks it
// against the oracle: the serving tier serves the ladder users build.
func buildLadder(bin, dir string, stones int) error {
	args := workload{stones: stones, engine: "concurrent"}.rabuildArgs(dir)
	cmd := exec.Command(filepath.Join(bin, "rabuild"), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("rabuild: %v: %s", err, out)
	}
	bad, err := verifyLadder(dir, stones)
	if err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("served ladder fails the oracle: %s", strings.Join(bad, "; "))
	}
	return nil
}

// localLookup opens rungs 0..stones of dir as an awari.Lookup.
func localLookup(dir string, stones int) (awari.Lookup, error) {
	rungs := make([][]game.Value, stones+1)
	for n := range rungs {
		v, err := loadRung(dir, n)
		if err != nil {
			return nil, err
		}
		rungs[n] = v
	}
	return func(n int, idx uint64) game.Value { return rungs[n][idx] }, nil
}

// serveSetup is a warm fleet serving a verified ladder, with the
// callers connected to the broker. setup is the time from fleet launch
// to the end of warm-up.
type serveSetup struct {
	f       *fleet
	clients []*server.Client
	st      *stream
	setup   time.Duration
	warm    loopStats
}

func (s *serveSetup) close() {
	closeAll(s.clients)
	if s.f != nil {
		s.f.stop()
	}
}

// startServe derives the stream from the ladder in dir, launches the
// fleet on it, connects nproc callers to the broker and warms up.
func startServe(w workload, o options, dir string) (*serveSetup, error) {
	lookup, err := localLookup(dir, w.stones)
	if err != nil {
		return nil, err
	}
	s := &serveSetup{st: newStream(o.seed, w.stones, w.batch, lookup)}
	t0 := time.Now()
	if s.f, err = startFleet(o.bin, dir, w.backends); err != nil {
		return nil, err
	}
	if s.clients, err = dialAll(s.f.broker.addr, nproc()); err != nil {
		s.close()
		return nil, err
	}
	top, err := topRungs(s.f, w.stones)
	if err == nil {
		s.warm, err = warmUp(s.f, s.clients, s.st, top)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.setup = time.Since(t0)
	return s, nil
}

// serveRun measures the brokered fleet: a closed loop of nproc callers,
// each on its own connection, for the window after warm-up. An
// operation is a query.
func serveRun(w workload, o options, work string, window time.Duration) (*outcome, error) {
	dir := filepath.Join(work, "ladder")
	if err := buildLadder(o.bin, dir, w.stones); err != nil {
		return nil, err
	}
	s, err := startServe(w, o, dir)
	if err != nil {
		return nil, err
	}
	defer s.close()
	ps := s.f.procs()
	cpu0, err := fleetCPU(ps)
	if err != nil {
		return nil, err
	}
	ls := closedLoop(s.clients, s.st, window, nil, -1)
	cpu1, err := fleetCPU(ps)
	if err != nil {
		return nil, err
	}
	var rss uint64
	for _, p := range ps {
		h, err := p.hwm()
		if err != nil {
			return nil, err
		}
		rss += h
	}
	if len(ls.lat) == 0 {
		return nil, fmt.Errorf("no batch was answered in the window")
	}
	kb := float64(len(ls.lat)) / 1000 // thousands of batches
	// Rates are medians over the window's whole slices, each slice's
	// figure taken from the batches that completed in it.
	var rates, batchRates []float64
	for k, n := range ls.sliceBatches {
		rates = append(rates, float64(ls.sliceAnswered[k])/slice.Seconds())
		batchRates = append(batchRates, float64(n)/slice.Seconds())
	}
	if median(batchRates) == 0 {
		return nil, fmt.Errorf("no batch completed in most seconds of the window")
	}
	res := &outcome{
		attempted: ls.queries + s.warm.queries,
		failed:    ls.failed + s.warm.failed,
		metrics: map[string]float64{
			"wall_s":       1000 / median(batchRates),
			"cpu_s":        (cpu1 - cpu0).Seconds() / kb,
			"peak_rss_mib": float64(rss) / mib,
			"setup_s":      s.setup.Seconds(),
			"qps":          median(rates),
			"p50_us":       quantile(ls.lat, 0.50),
		},
	}
	res.summary = append(res.summary,
		fmt.Sprintf("serve: %d callers x %d-query batches through rabroker to %d raserve, closed loop, %.2fs window after %.3fs set-up",
			len(s.clients), w.batch, w.backends, ls.elapsed.Seconds(), s.setup.Seconds()),
		fmt.Sprintf("serve: %d batches (latency sample count), %d queries, %.0f queries/s (median of %d one-second slices; %.0f over the window), p50 %.1f µs, p99 %.1f µs, p999 %.1f µs",
			len(ls.lat), ls.queries, median(rates), len(rates), ls.qps(), quantile(ls.lat, 0.5), quantile(ls.lat, 0.99), quantile(ls.lat, 0.999)),
		fmt.Sprintf("serve: fleet CPU %.3f s in the window, summed VmHWM %.1f MiB; warm-up sent %d queries",
			(cpu1-cpu0).Seconds(), float64(rss)/mib, s.warm.queries))
	return res, nil
}
