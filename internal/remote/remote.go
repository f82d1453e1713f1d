// Package remote runs the paper's parallel retrograde-analysis algorithm
// over real TCP connections. Where package ra's Distributed engine models
// a 1995 cluster in virtual time, this engine is the deployable
// counterpart: worker nodes exchange length-prefixed binary frames over a
// full mesh of sockets, with message combining batching updates per
// destination — the algorithm as one would actually ship it.
//
// Each node runs ra's wave driver (ra.Drive) with itself as the
// transport. The engine runs its nodes as goroutines inside one process
// connected over loopback (the wire protocol is process-agnostic; nothing
// but the bootstrap assumes shared memory). TCP guarantees ordering only
// per connection, so a wave's exchange ends with sentinels: a node has
// seen every wave-w batch once the end-of-wave sentinel of every peer has
// arrived on its connection. Between waves, every node reports its
// frontier to node 0 in a done frame, and node 0 folds the reports into
// the go frame that starts the next phase.
package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"retrograde/internal/combine"
	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// Frame types on the wire.
const (
	frameBatch     byte = iota + 1 // combined updates
	frameEOW                       // end-of-wave sentinel (per peer connection)
	frameDone                      // a node's count at the barrier, sent to node 0
	frameGo                        // node 0 starts the next phase
	frameHeartbeat                 // keep-alive so idle healthy conns never trip the deadline
	frameBye                       // orderly shutdown notice; EOF without it means a crash
)

// Phases a go frame starts.
const (
	phaseExpand byte = iota + 1
	phaseLoops
	phaseFinish
)

// Engine solves games over TCP. It implements ra.Engine.
type Engine struct {
	// Workers is the number of nodes; 0 means 4.
	Workers int
	// Batch is the combining-buffer size in updates per frame; 0 means
	// 256, 1 disables combining.
	Batch int
	// Group is the block-cyclic partition group size; 0 means 1.
	Group uint64

	// Timeout bounds failure detection: a node that sends nothing (not
	// even a heartbeat) for this long is declared dead, and a write that
	// cannot complete within it fails. 0 means DefaultTimeout. A solve
	// with a crashed or wedged node returns a NodeFailedError within
	// roughly this bound instead of hanging.
	Timeout time.Duration
	// Heartbeat is the keep-alive interval; 0 means Timeout/4. Negative
	// disables heartbeats entirely — only for measuring their cost
	// (experiments/E12): without beats a healthy-but-quiet peer trips
	// the read deadline, so pair a disabled heartbeat with a Timeout
	// longer than the whole solve.
	Heartbeat time.Duration

	// CheckpointDir enables crash-resumable solves: each node persists
	// its shard there every CheckpointEvery waves, and a later Solve in
	// the same directory resumes from the newest wave checkpointed by
	// every node. Empty disables checkpointing.
	CheckpointDir string
	// CheckpointEvery is the wave interval between checkpoints; 0 means 8.
	CheckpointEvery int

	// WrapConn, when non-nil, wraps every mesh connection endpoint
	// (local's view of the conn to peer) — the fault-injection hook for
	// internal/faultnet. Production runs leave it nil.
	WrapConn func(local, peer int, c net.Conn) net.Conn
}

func (e Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return 4
}

func (e Engine) batch() int {
	if e.Batch > 0 {
		return e.Batch
	}
	return 256
}

func (e Engine) group() uint64 {
	if e.Group > 0 {
		return e.Group
	}
	return 1
}

// Name implements ra.Engine.
func (e Engine) Name() string {
	return fmt.Sprintf("tcp(p=%d,batch=%d)", e.workers(), e.batch())
}

// Report describes the wire traffic of a finished run.
type Report struct {
	// Frames and Bytes count everything written to sockets.
	Frames, Bytes uint64
	// DataFrames counts update-carrying frames only.
	DataFrames uint64
}

// Solve implements ra.Engine.
func (e Engine) Solve(g game.Game) (*ra.Result, error) {
	r, _, err := e.SolveDetailed(g)
	return r, err
}

// SolveDetailed also returns the traffic report.
func (e Engine) SolveDetailed(g game.Game) (*ra.Result, *Report, error) {
	p := e.workers()
	part, err := ra.NewPartition(g.Size(), p, e.group())
	if err != nil {
		return nil, nil, err
	}

	// With checkpointing on, a previous run's state in the directory
	// takes precedence over a fresh start.
	var resume *resumeState
	if e.CheckpointDir != "" {
		if err := os.MkdirAll(e.CheckpointDir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("remote: checkpoint dir: %w", err)
		}
		resume, err = loadResume(e.CheckpointDir, g, p)
		if err != nil {
			return nil, nil, fmt.Errorf("remote: resume: %w", err)
		}
	}

	// Bootstrap: every node listens on loopback, then the mesh is built
	// by having node i dial every node j > i; the dialer announces its id
	// in a one-byte hello. Hellos carry a read deadline so a wedged
	// bootstrap fails instead of hanging.
	listeners := make([]net.Listener, p)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, fmt.Errorf("remote: listen: %w", err)
		}
		listeners[i] = l
		defer l.Close()
	}
	conns := make([][]net.Conn, p)
	for i := range conns {
		conns[i] = make([]net.Conn, p)
	}
	var bootstrap sync.WaitGroup
	bootErr := make(chan error, p)
	for i := 0; i < p; i++ {
		// Accept connections from all lower-numbered nodes.
		expect := i
		bootstrap.Add(1)
		go func(i, expect int) {
			defer bootstrap.Done()
			for k := 0; k < expect; k++ {
				c, err := listeners[i].Accept()
				if err != nil {
					bootErr <- err
					return
				}
				c.SetReadDeadline(time.Now().Add(e.timeout()))
				var hello [1]byte
				if _, err := io.ReadFull(c, hello[:]); err != nil {
					bootErr <- err
					return
				}
				c.SetReadDeadline(time.Time{})
				if e.WrapConn != nil {
					c = e.WrapConn(i, int(hello[0]), c)
				}
				conns[i][hello[0]] = c
			}
		}(i, expect)
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			c, err := net.DialTimeout("tcp", listeners[j].Addr().String(), e.timeout())
			if err != nil {
				return nil, nil, fmt.Errorf("remote: dial: %w", err)
			}
			// The hello byte is armed like the accept side's read of it: a
			// peer that accepts but never drains must not wedge bootstrap.
			c.SetWriteDeadline(time.Now().Add(e.timeout()))
			if _, err := c.Write([]byte{byte(i)}); err != nil {
				return nil, nil, err
			}
			c.SetWriteDeadline(time.Time{})
			if e.WrapConn != nil {
				c = e.WrapConn(i, j, c)
			}
			conns[i][j] = c
		}
	}
	bootstrap.Wait()
	select {
	case err := <-bootErr:
		return nil, nil, fmt.Errorf("remote: bootstrap: %w", err)
	default:
	}

	workers := make([]*ra.Worker, p)
	nodes := make([]*node, p)
	wave, waves := 1, 0
	if resume != nil {
		wave, waves = resume.wave, resume.waves
	}
	for i := range nodes {
		if resume != nil {
			workers[i] = resume.workers[i]
		} else {
			workers[i] = ra.NewWorker(g, part, i)
		}
		nodes[i] = newNode(workers[i], e, conns[i], wave)
	}
	nodeWaves := make([]int, p)
	errs := make(chan error, p)
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if nodeWaves[i], err = n.run(waves, resume != nil); err != nil {
				errs <- fmt.Errorf("remote: node %d: %w", n.id, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	// When the mesh unwinds, secondary nodes report the cascade (their
	// peers' sockets closing); prefer the error that names a failed node.
	var firstErr error
	for err := range errs {
		if firstErr == nil {
			firstErr = err
		}
		var nf *NodeFailedError
		if errors.As(err, &nf) {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if e.CheckpointDir != "" {
		clearCheckpoints(e.CheckpointDir)
	}

	var rep Report
	for _, n := range nodes {
		rep.Frames += n.framesSent.Load()
		rep.Bytes += n.bytesSent.Load()
		rep.DataFrames += n.dataFrames
	}
	return ra.Assemble(g, workers, nodeWaves[0]), &rep, nil
}

// event is a decoded frame plus its sender, serialized onto the node's
// event channel by the per-connection reader goroutines.
type event struct {
	from    int
	kind    byte
	wave    int
	phase   byte
	work    uint64
	updates []ra.Update
	err     error
}

// node is one mesh member: its shard's worker, its connections, and the
// ra.Transport the wave driver runs it through. Only the node's own
// goroutine touches its fields, apart from the atomic counters and the
// writer queues.
type node struct {
	id      int
	w       *ra.Worker
	peers   int
	conns   []net.Conn
	writers []*writer
	events  chan event
	buf     *combine.Buffer[ra.Update]

	timeout   time.Duration
	hb        time.Duration
	ckptDir   string
	ckptEvery int

	wave     int           // the wave being run, or entered at a barrier
	phase    byte          // the phase of the last go frame; 0 before the first
	exchange bool          // between a go(expand) frame and the end of its wave's exchange
	eows     int           // end-of-wave sentinels seen for wave
	held     [][]ra.Update // batches that arrived at the barrier, applied in EndWave
	next     byte          // phase of a go frame received at the barrier

	// Node 0 only: done reports received for the coming barrier.
	dones    int
	doneWork uint64

	quit chan struct{}

	// framesSent/bytesSent are atomic: the heartbeat goroutine sends
	// concurrently with the node's goroutine.
	framesSent, bytesSent atomic.Uint64
	dataFrames            uint64
}

func newNode(w *ra.Worker, e Engine, conns []net.Conn, wave int) *node {
	n := &node{
		id:        w.ID(),
		w:         w,
		peers:     len(conns) - 1,
		conns:     conns,
		events:    make(chan event, 4*len(conns)),
		quit:      make(chan struct{}),
		timeout:   e.timeout(),
		hb:        e.heartbeat(),
		ckptDir:   e.CheckpointDir,
		ckptEvery: e.ckptEvery(),
		wave:      wave,
	}
	n.writers = make([]*writer, len(conns))
	for j, c := range conns {
		if c != nil {
			n.writers[j] = newWriter(c, n.timeout, n.peerFailed(j))
		}
	}
	// The driver applies self-owned updates inline, so every batch here
	// is bound for a peer.
	n.buf = combine.MustNew(len(conns), e.batch(), func(dst int, b []ra.Update) {
		n.sendFrame(dst, encodeBatch(n.wave, b))
		n.dataFrames++
	})
	return n
}

// peerFailed returns a callback delivering a peer-failure cause to the
// node's goroutine (which wraps it with its phase and wave); used by the
// reader and writer goroutines of peer j's connection.
func (n *node) peerFailed(j int) func(error) {
	return func(cause error) {
		select {
		case n.events <- event{from: j, err: cause}:
		case <-n.quit:
		}
	}
}

// run drives this node's shard to completion over the mesh and returns
// the number of waves run.
func (n *node) run(waves int, restored bool) (int, error) {
	for j, c := range n.conns {
		if c == nil {
			continue
		}
		go n.reader(j, c)
	}
	if n.peers > 0 && n.hb > 0 {
		go n.heartbeats(n.hb)
	}
	defer func() {
		close(n.quit)
		for _, w := range n.writers {
			if w != nil {
				w.close()
			}
		}
	}()
	return ra.Drive(n.w, n, waves, restored)
}

// Send implements ra.Transport.
func (n *node) Send(owner int, u ra.Update) { n.buf.Add(owner, u) }

// SendRun implements ra.Transport; mesh workers run the scalar kernel,
// which never emits runs.
func (n *node) SendRun(int, ra.UpdateRun) {
	panic("remote: the mesh carries scalar updates only")
}

// Poll implements ra.Transport. Traffic waits on the event channel until
// EndWave, which is where a node consumes it.
func (n *node) Poll() {}

// EndWave implements ra.Transport: flush, send the sentinels, apply the
// batches that arrived before this node's wave began, then consume
// traffic until every peer's sentinel is in. No peer sends next-wave
// traffic before the next barrier, so the wave advances here.
func (n *node) EndWave() error {
	n.buf.FlushAll()
	// All wave-w batches to each peer precede this marker on the shared
	// per-pair connection.
	n.broadcast(encodeCtl(frameEOW, n.wave, 0, 0))
	for _, b := range n.held {
		n.applyBatch(b)
	}
	n.held = nil
	if err := n.await(func() bool { return n.eows == n.peers }); err != nil {
		return err
	}
	n.exchange = false
	n.eows = 0
	n.wave++
	return nil
}

// Barrier implements ra.Transport. At a wave entry — the one checkpoint-
// safe moment: earlier waves fully applied, this one not begun, and its
// traffic regenerated by any re-run — the node first persists its shard
// when due. Then every node reports count to node 0, which sums the
// reports and answers with the next phase: another wave while any
// frontier is left, then loop resolution, then finish.
func (n *node) Barrier(count int) (bool, error) {
	if n.phase != phaseLoops && n.ckptDir != "" && n.wave%n.ckptEvery == 0 {
		if err := n.writeCheckpoint(); err != nil {
			return false, err
		}
	}
	var next byte
	if n.id == 0 {
		if err := n.await(func() bool { return n.dones == n.peers }); err != nil {
			return false, err
		}
		switch {
		case n.phase == phaseLoops:
			next = phaseFinish
		case n.doneWork > 0 || count > 0:
			next = phaseExpand
		default:
			next = phaseLoops
		}
		n.dones, n.doneWork = 0, 0
		n.broadcast(encodeCtl(frameGo, n.wave, next, 0))
	} else {
		n.sendFrame(0, encodeCtl(frameDone, n.wave, 0, uint64(count)))
		if err := n.await(func() bool { return n.next != 0 }); err != nil {
			return false, err
		}
		next, n.next = n.next, 0
	}
	n.phase = next
	n.exchange = next == phaseExpand
	if next == phaseFinish {
		// Announce the orderly shutdown before sockets start closing, so
		// peers can tell this EOF from a crash.
		n.broadcast(encodeCtl(frameBye, n.wave, 0, 0))
	}
	return next == phaseExpand, nil
}

// await consumes peer traffic until ready holds. Batches are applied
// during a wave's exchange; at a barrier they belong to the wave about
// to start, so they are held until EndWave. Sentinels, done reports
// (node 0) and go frames are counted or recorded for ready to inspect.
func (n *node) await(ready func() bool) error {
	for !ready() {
		ev := <-n.events
		if ev.err != nil {
			return &NodeFailedError{Node: ev.from, Phase: phaseName(n.phase), Wave: n.wave, Err: ev.err}
		}
		// Node 0 may see a done report for the next barrier while it is
		// still finishing a wave; every other frame is for this wave.
		if ev.wave != n.wave && !(ev.kind == frameDone && ev.wave == n.wave+1) {
			return fmt.Errorf("node %d sent a wave-%d frame during wave %d", ev.from, ev.wave, n.wave)
		}
		switch ev.kind {
		case frameBatch:
			if n.exchange {
				n.applyBatch(ev.updates)
			} else {
				n.held = append(n.held, ev.updates)
			}
		case frameEOW:
			n.eows++
		case frameDone:
			n.dones++
			n.doneWork += ev.work
		case frameGo:
			n.next = ev.phase
		}
	}
	return nil
}

func (n *node) applyBatch(updates []ra.Update) {
	for _, u := range updates {
		n.w.Apply(u)
	}
}

// broadcast sends one control frame to every peer.
func (n *node) broadcast(frame []byte) {
	for j := range n.conns {
		if j != n.id && n.conns[j] != nil {
			n.sendFrame(j, frame)
		}
	}
}

func (n *node) sendFrame(dst int, frame []byte) {
	n.framesSent.Add(1)
	n.bytesSent.Add(uint64(len(frame)))
	n.writers[dst].enqueue(frame)
}

// reader decodes frames from one peer connection onto the event channel.
// Every read is armed with the failure-detection deadline: heartbeats
// keep a healthy idle connection alive, so tripping it means the peer is
// wedged. An EOF counts as orderly only after the peer's bye frame;
// without one, the peer crashed.
func (n *node) reader(from int, c net.Conn) {
	br := bufio.NewReader(c)
	sawBye := false
	for {
		c.SetReadDeadline(time.Now().Add(n.timeout))
		ev, err := readFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) && sawBye {
				return
			}
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("connection closed without bye: %w", io.ErrUnexpectedEOF)
			}
			n.peerFailed(from)(err)
			return
		}
		switch ev.kind {
		case frameHeartbeat:
			continue // its arrival already reset the deadline
		case frameBye:
			sawBye = true
			continue
		}
		ev.from = from
		select {
		case n.events <- ev:
		case <-n.quit:
			return
		}
	}
}

// Wire format: length(4, LE, excluding itself) | type(1) | wave(4) |
// then per type: batch: count(4) + count*(target 8, value 2);
// done: work(8); go: phase(1); eow: nothing.

func encodeBatch(wave int, updates []ra.Update) []byte {
	buf := make([]byte, 4+1+4+4+len(updates)*10)
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	buf[4] = frameBatch
	binary.LittleEndian.PutUint32(buf[5:], uint32(wave))
	binary.LittleEndian.PutUint32(buf[9:], uint32(len(updates)))
	off := 13
	for _, u := range updates {
		binary.LittleEndian.PutUint64(buf[off:], u.Target)
		binary.LittleEndian.PutUint16(buf[off+8:], uint16(u.Value))
		off += 10
	}
	return buf
}

func encodeCtl(kind byte, wave int, phase byte, work uint64) []byte {
	var body int
	switch kind {
	case frameDone:
		body = 8
	case frameGo:
		body = 1
	}
	buf := make([]byte, 4+1+4+body)
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	buf[4] = kind
	binary.LittleEndian.PutUint32(buf[5:], uint32(wave))
	switch kind {
	case frameDone:
		binary.LittleEndian.PutUint64(buf[9:], work)
	case frameGo:
		buf[9] = phase
	}
	return buf
}

func readFrame(r *bufio.Reader) (event, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return event{}, err
	}
	size := binary.LittleEndian.Uint32(head[:])
	if size < 5 || size > 64<<20 {
		return event{}, fmt.Errorf("remote: implausible frame size %d", size)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return event{}, err
	}
	ev := event{kind: body[0], wave: int(binary.LittleEndian.Uint32(body[1:]))}
	switch ev.kind {
	case frameBatch:
		count := binary.LittleEndian.Uint32(body[5:])
		if uint32(len(body)) != 9+count*10 {
			return event{}, fmt.Errorf("remote: batch frame size mismatch")
		}
		ev.updates = make([]ra.Update, count)
		off := 9
		for i := range ev.updates {
			ev.updates[i].Target = binary.LittleEndian.Uint64(body[off:])
			ev.updates[i].Value = game.Value(binary.LittleEndian.Uint16(body[off+8:]))
			off += 10
		}
	case frameDone:
		if len(body) != 13 {
			return event{}, fmt.Errorf("remote: done frame size mismatch")
		}
		ev.work = binary.LittleEndian.Uint64(body[5:])
	case frameGo:
		if len(body) != 6 {
			return event{}, fmt.Errorf("remote: go frame size mismatch")
		}
		ev.phase = body[5]
	case frameEOW, frameHeartbeat, frameBye:
		if len(body) != 5 {
			return event{}, fmt.Errorf("remote: ctl frame size mismatch")
		}
	default:
		return event{}, fmt.Errorf("remote: unknown frame type %d", ev.kind)
	}
	return ev, nil
}

// writer serializes frame writes to one connection through an unbounded
// queue drained by a dedicated goroutine, so senders never block on slow
// peers (which could deadlock the mesh).
type writer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   [][]byte
	closed  bool
	conn    net.Conn
	done    chan struct{}
	timeout time.Duration
	onErr   func(error) // reports a stalled or failed write; may be nil
}

func newWriter(c net.Conn, timeout time.Duration, onErr func(error)) *writer {
	w := &writer{conn: c, done: make(chan struct{}), timeout: timeout, onErr: onErr}
	w.cond = sync.NewCond(&w.mu)
	go w.loop()
	return w
}

func (w *writer) enqueue(frame []byte) {
	w.mu.Lock()
	if !w.closed {
		w.queue = append(w.queue, frame)
	}
	w.mu.Unlock()
	w.cond.Signal()
}

func (w *writer) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.cond.Signal()
	<-w.done
	w.conn.Close()
}

func (w *writer) loop() {
	defer close(w.done)
	bw := bufio.NewWriter(w.conn)
	fail := func(err error) {
		if w.onErr != nil {
			w.onErr(err)
		}
	}
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.closed {
			w.cond.Wait()
		}
		if len(w.queue) == 0 && w.closed {
			w.mu.Unlock()
			bw.Flush()
			return
		}
		batch := w.queue
		w.queue = nil
		w.mu.Unlock()
		// A write deadline bounds every flush: a peer that stops reading
		// (wedged, not crashed) would otherwise stall this goroutine — and
		// close() waits for it, so the whole solve would hang.
		if w.timeout > 0 {
			w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
		}
		for _, frame := range batch {
			if _, err := bw.Write(frame); err != nil {
				fail(err)
				return
			}
		}
		if err := bw.Flush(); err != nil {
			fail(err)
			return
		}
	}
}
