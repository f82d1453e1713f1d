package ra

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"

	"retrograde/internal/game"
)

// The paper's large runs took tens of hours; production database builds
// need to survive restarts. A checkpoint captures a worker's complete
// mid-analysis state between waves; package remote persists one per mesh
// node at wave entry and resumes a killed solve from them.

const (
	checkpointMagic   = "RACP"
	checkpointVersion = 1
	// maxCheckpointWorkers bounds the worker count a checkpoint header
	// may claim: a restored worker sizes per-owner tables by it.
	maxCheckpointWorkers = 1 << 16
)

var crcTab = crc64.MakeTable(crc64.ECMA)

// ErrPaused is returned by the out-of-core engine when it stops early
// because its StopAfterWaves budget was reached (see internal/oocore);
// the spill store on disk continues the run.
var ErrPaused = errors.New("ra: analysis paused at a checkpoint")

// WriteCheckpoint serialises the worker's full state plus the caller's
// wave counter. Safe to call between waves (never during Expand/Apply).
func (w *Worker) WriteCheckpoint(out io.Writer, waves int) error {
	cw := &crcWriter{w: out}
	head := make([]byte, 0, 64)
	head = append(head, checkpointMagic...)
	head = binary.LittleEndian.AppendUint32(head, checkpointVersion)
	head = binary.LittleEndian.AppendUint32(head, uint32(w.me))
	head = binary.LittleEndian.AppendUint32(head, uint32(w.part.Workers()))
	head = binary.LittleEndian.AppendUint64(head, w.part.Group())
	head = binary.LittleEndian.AppendUint64(head, w.part.Size())
	head = binary.LittleEndian.AppendUint64(head, uint64(waves))
	if _, err := cw.Write(head); err != nil {
		return err
	}
	// The on-disk format predates the packed state word and stores the
	// three logical arrays separately; decode them (through the kernel-
	// agnostic accessors, so SWAR workers checkpoint too) so old
	// checkpoints stay readable. A SWAR worker's undetermined positions
	// serialise their "no value yet" as 0 — order-equivalent under the
	// lane contract, and restored workers are scalar either way.
	n := w.ShardSize()
	vals := make([]game.Value, n)
	cnts := make([]int32, n)
	finals := make([]byte, n)
	for i := uint64(0); i < n; i++ {
		vals[i] = w.valueAt(i)
		cnts[i] = w.counterAt(i)
		if w.finalAt(i) {
			finals[i] = 1
		}
	}
	if err := writeU16s(cw, vals); err != nil {
		return err
	}
	if err := writeI32s(cw, cnts); err != nil {
		return err
	}
	if _, err := cw.Write(finals); err != nil {
		return err
	}
	for _, q := range [][]uint64{w.queue, w.next, w.loopy} {
		if err := writeU64s(cw, q); err != nil {
			return err
		}
	}
	stats := []uint64{
		w.Stats.Positions, w.Stats.InitFinal, w.Stats.MovesGenerated,
		w.Stats.Expanded, w.Stats.PredsGenerated, w.Stats.UpdatesApplied,
		w.Stats.UpdatesStale, w.Stats.Finalized, w.Stats.LoopResolved,
	}
	if err := writeU64s(cw, stats); err != nil {
		return err
	}
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], cw.crc)
	_, err := cw.w.Write(tail[:])
	return err
}

// ReadCheckpoint restores a worker written by WriteCheckpoint. The game
// must be the one the checkpoint was taken from (sizes are verified; the
// game's identity cannot be).
func ReadCheckpoint(g game.Game, in io.Reader) (w *Worker, waves int, err error) {
	cr := &crcReader{r: in}
	head := make([]byte, 40)
	if _, err := io.ReadFull(cr, head); err != nil {
		return nil, 0, fmt.Errorf("ra: reading checkpoint header: %w", err)
	}
	if string(head[:4]) != checkpointMagic {
		return nil, 0, fmt.Errorf("ra: bad checkpoint magic %q", head[:4])
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != checkpointVersion {
		return nil, 0, fmt.Errorf("ra: unsupported checkpoint version %d", v)
	}
	me := int(binary.LittleEndian.Uint32(head[8:]))
	workers := int(binary.LittleEndian.Uint32(head[12:]))
	group := binary.LittleEndian.Uint64(head[16:])
	size := binary.LittleEndian.Uint64(head[24:])
	waves = int(binary.LittleEndian.Uint64(head[32:]))
	if size != g.Size() {
		return nil, 0, fmt.Errorf("ra: checkpoint is for a %d-position game, got %d", size, g.Size())
	}
	if workers > maxCheckpointWorkers {
		return nil, 0, fmt.Errorf("ra: checkpoint claims %d workers, more than %d", workers, maxCheckpointWorkers)
	}
	if me < 0 || me >= workers {
		return nil, 0, fmt.Errorf("ra: checkpoint worker %d out of range [0, %d)", me, workers)
	}
	part, err := NewPartition(size, workers, group)
	if err != nil {
		return nil, 0, err
	}
	w = NewWorker(g, part, me)
	vals := make([]game.Value, len(w.state))
	if err := readU16s(cr, vals); err != nil {
		return nil, 0, err
	}
	cnts := make([]int32, len(w.state))
	if err := readI32s(cr, cnts); err != nil {
		return nil, 0, err
	}
	finals := make([]byte, len(w.state))
	if _, err := io.ReadFull(cr, finals); err != nil {
		return nil, 0, err
	}
	for i := range w.state {
		if cnts[i] < 0 || cnts[i] > MaxSuccessors {
			return nil, 0, fmt.Errorf("ra: checkpoint counter %d at position %d exceeds packed range [0, %d]", cnts[i], i, MaxSuccessors)
		}
		w.state[i] = packState(vals[i], cnts[i], finals[i] == 1)
	}
	if w.queue, err = readU64Slice(cr); err != nil {
		return nil, 0, err
	}
	if w.next, err = readU64Slice(cr); err != nil {
		return nil, 0, err
	}
	if w.loopy, err = readU64Slice(cr); err != nil {
		return nil, 0, err
	}
	stats, err := readU64Slice(cr)
	if err != nil {
		return nil, 0, err
	}
	if len(stats) != 9 {
		return nil, 0, fmt.Errorf("ra: checkpoint has %d stats fields, want 9", len(stats))
	}
	w.Stats = WorkerStats{
		Positions: stats[0], InitFinal: stats[1], MovesGenerated: stats[2],
		Expanded: stats[3], PredsGenerated: stats[4], UpdatesApplied: stats[5],
		UpdatesStale: stats[6], Finalized: stats[7], LoopResolved: stats[8],
	}
	want := cr.crc
	var tail [8]byte
	if _, err := io.ReadFull(cr.r, tail[:]); err != nil {
		return nil, 0, fmt.Errorf("ra: reading checkpoint checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(tail[:]); got != want {
		return nil, 0, fmt.Errorf("ra: checkpoint checksum mismatch")
	}
	return w, waves, nil
}

// WriteFileAtomic writes a file so that a crash at any point leaves
// either the complete new contents or the prior file untouched: the data
// goes to path+".tmp", is fsynced before close (a rename alone does not
// flush the page cache — a crash after an unsynced rename can persist an
// empty or truncated file over a valid one), and only then renamed over
// path. The temporary file is removed on every error path.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

type crcWriter struct {
	w   io.Writer
	crc uint64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc64.Update(c.crc, crcTab, p)
	return c.w.Write(p)
}

type crcReader struct {
	r   io.Reader
	crc uint64
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc64.Update(c.crc, crcTab, p[:n])
	return n, err
}

func writeU16s(w io.Writer, xs []game.Value) error {
	buf := make([]byte, 8+2*len(xs))
	binary.LittleEndian.PutUint64(buf, uint64(len(xs)))
	for i, x := range xs {
		binary.LittleEndian.PutUint16(buf[8+2*i:], uint16(x))
	}
	_, err := w.Write(buf)
	return err
}

func readU16s(r io.Reader, dst []game.Value) error {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return err
	}
	if n := binary.LittleEndian.Uint64(head[:]); n != uint64(len(dst)) {
		return fmt.Errorf("ra: checkpoint value array has %d entries, want %d", n, len(dst))
	}
	buf := make([]byte, 2*len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = game.Value(binary.LittleEndian.Uint16(buf[2*i:]))
	}
	return nil
}

func writeI32s(w io.Writer, xs []int32) error {
	buf := make([]byte, 8+4*len(xs))
	binary.LittleEndian.PutUint64(buf, uint64(len(xs)))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[8+4*i:], uint32(x))
	}
	_, err := w.Write(buf)
	return err
}

func readI32s(r io.Reader, dst []int32) error {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return err
	}
	if n := binary.LittleEndian.Uint64(head[:]); n != uint64(len(dst)) {
		return fmt.Errorf("ra: checkpoint counter array has %d entries, want %d", n, len(dst))
	}
	buf := make([]byte, 4*len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return nil
}

func writeU64s(w io.Writer, xs []uint64) error {
	buf := make([]byte, 8+8*len(xs))
	binary.LittleEndian.PutUint64(buf, uint64(len(xs)))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8+8*i:], x)
	}
	_, err := w.Write(buf)
	return err
}

func readU64Slice(r io.Reader) ([]uint64, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(head[:])
	if n > 1<<40 {
		return nil, fmt.Errorf("ra: implausible checkpoint slice length %d", n)
	}
	buf := make([]byte, 8*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return xs, nil
}
