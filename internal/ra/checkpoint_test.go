package ra

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"retrograde/internal/nim"
	"retrograde/internal/ttt"
)

// finish drains a worker to completion and returns its values via a
// fresh Result-shaped comparison against the reference.
func finishWorker(w *Worker) {
	for w.BeginWave() > 0 {
		w.Expand(0, func(owner int, u Update) { w.Apply(u) })
	}
	w.ResolveLoops()
}

func TestCheckpointRoundTripMidAnalysis(t *testing.T) {
	g := ttt.New()
	want := SolveSequential(g)

	part := Cyclic(g.Size(), 1)
	w := NewWorker(g, part, 0)
	w.Init()
	for i := 0; i < 3 && w.BeginWave() > 0; i++ {
		w.Expand(0, func(owner int, u Update) { w.Apply(u) })
	}
	var buf bytes.Buffer
	if err := w.WriteCheckpoint(&buf, 3); err != nil {
		t.Fatal(err)
	}
	restored, waves, err := ReadCheckpoint(g, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if waves != 3 {
		t.Errorf("restored waves = %d, want 3", waves)
	}
	// Finishing the restored worker must reproduce the reference values.
	finishWorker(restored)
	for idx := uint64(0); idx < g.Size(); idx++ {
		if restored.Value(idx) != want.Values[idx] {
			t.Fatalf("restored analysis differs at %d", idx)
		}
	}
	if restored.Stats.Positions != want.Workers[0].Positions {
		t.Errorf("stats not restored: %+v", restored.Stats)
	}
}

func TestCheckpointRejectsWrongGame(t *testing.T) {
	g := nim.MustNew(2, 4)
	part := Cyclic(g.Size(), 1)
	w := NewWorker(g, part, 0)
	w.Init()
	var buf bytes.Buffer
	if err := w.WriteCheckpoint(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(nim.MustNew(3, 4), bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("checkpoint for a different game size was accepted")
	}
}

// TestCheckpointRejectsBadHeader corrupts the header fields that size
// the restored worker: each must yield an error before a worker is built,
// never a panic or an oversized allocation.
func TestCheckpointRejectsBadHeader(t *testing.T) {
	g := nim.MustNew(3, 4)
	w := NewWorker(g, Cyclic(g.Size(), 1), 0)
	w.Init()
	var buf bytes.Buffer
	if err := w.WriteCheckpoint(&buf, 0); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		off   int
		value uint32
	}{
		{"worker id past the worker count", 8, 7},
		{"worker count too large", 12, 1 << 31},
	} {
		data := bytes.Clone(buf.Bytes())
		binary.LittleEndian.PutUint32(data[tc.off:], tc.value)
		if _, _, err := ReadCheckpoint(g, bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	g := nim.MustNew(2, 4)
	part := Cyclic(g.Size(), 1)
	w := NewWorker(g, part, 0)
	w.Init()
	var buf bytes.Buffer
	if err := w.WriteCheckpoint(&buf, 0); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0x40
	if _, _, err := ReadCheckpoint(g, bytes.NewReader(data)); err == nil {
		t.Error("corrupted checkpoint was accepted")
	}
}

// TestAtomicWriteNeverReplacesValidCheckpoint interrupts a checkpoint
// write mid-stream and checks the prior file survives intact and no
// .tmp residue is left — the crash-mid-write contract of WriteFileAtomic.
func TestAtomicWriteNeverReplacesValidCheckpoint(t *testing.T) {
	g := ttt.New()
	path := filepath.Join(t.TempDir(), "ttt.racp")

	part := Cyclic(g.Size(), 1)
	w := NewWorker(g, part, 0)
	w.Init()
	if err := WriteFileAtomic(path, func(out io.Writer) error {
		return w.WriteCheckpoint(out, 0)
	}); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A write that dies mid-stream: some bytes, then the plug is pulled.
	boom := errors.New("simulated crash")
	err = WriteFileAtomic(path, func(out io.Writer) error {
		if _, err := out.Write(valid[:len(valid)/2]); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("interrupted write returned %v, want the injected crash", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("interrupted write leaked %s.tmp (stat: %v)", path, err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(valid, after) {
		t.Fatal("interrupted write clobbered the valid prior checkpoint")
	}
	if _, _, err := ReadCheckpoint(g, bytes.NewReader(after)); err != nil {
		t.Fatalf("prior checkpoint no longer readable: %v", err)
	}

	// A crash that leaves a partial .tmp behind must not disturb the next
	// checkpoint write.
	if err := os.WriteFile(path+".tmp", valid[:8], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, func(out io.Writer) error {
		return w.WriteCheckpoint(out, 1)
	}); err != nil {
		t.Fatalf("write over stale .tmp residue failed: %v", err)
	}
	after, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, waves, err := ReadCheckpoint(g, bytes.NewReader(after)); err != nil || waves != 1 {
		t.Fatalf("checkpoint written over .tmp residue: waves %d, err %v", waves, err)
	}
}
