package remote

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"retrograde/internal/game"
	"retrograde/internal/ra"
)

// Distributed checkpointing rides on ra's per-worker checkpoint format:
// each node serialises its own shard at the entry barrier of a
// checkpoint wave — the one moment its state is exactly "all waves < w
// complete, wave w not started", before BeginWave and before any held
// wave-w traffic is applied — under a small mesh header (node count,
// wave, the number of waves run before it). Re-running wave w
// regenerates every in-flight batch, so nothing on the wire needs
// saving.
//
// Nodes reach a checkpoint wave at slightly different times, and a crash
// can land between one node's write and another's; each node therefore
// keeps its previous checkpoint beside the newest. A node enters wave w
// only after finishing wave w-1, which needs every peer's end-of-wave
// sentinel, which every peer sends only after node 0 started wave w-1 —
// that is, after every node passed w-1's entry barrier and wrote its
// checkpoint there. So whenever any node has written wave w, all nodes
// have written the checkpoint before it: the newest wave present on
// every node is a consistent global state, and resume picks exactly
// that.

const (
	meshCkptMagic   = "RMCP"
	meshCkptVersion = 1
)

func ckptName(wave, node int) string {
	return fmt.Sprintf("ckpt-w%08d-node-%03d.racp", wave, node)
}

func (e Engine) ckptEvery() int {
	if e.CheckpointEvery > 0 {
		return e.CheckpointEvery
	}
	return 8
}

// writeCheckpoint persists this node's state at the entry of its current
// wave, then prunes everything older than the previous checkpoint.
func (n *node) writeCheckpoint() error {
	wave := n.wave
	path := filepath.Join(n.ckptDir, ckptName(wave, n.id))
	err := ra.WriteFileAtomic(path, func(out io.Writer) error {
		head := make([]byte, 0, 32)
		head = append(head, meshCkptMagic...)
		head = binary.LittleEndian.AppendUint32(head, meshCkptVersion)
		head = binary.LittleEndian.AppendUint32(head, uint32(n.peers+1))
		// Every wave before this one expanded something: the driver's
		// wave count at its entry.
		head = binary.LittleEndian.AppendUint64(head, uint64(wave-1))
		if _, err := out.Write(head); err != nil {
			return err
		}
		return n.w.WriteCheckpoint(out, wave)
	})
	if err != nil {
		return fmt.Errorf("checkpoint at wave %d: %w", wave, err)
	}
	// Keep this checkpoint and the previous one; anything older can no
	// longer be the newest-on-every-node wave.
	for w := range listCheckpoints(n.ckptDir, n.id) {
		if w < wave-n.ckptEvery {
			os.Remove(filepath.Join(n.ckptDir, ckptName(w, n.id)))
		}
	}
	return nil
}

// listCheckpoints returns the checkpoint waves present for one node.
func listCheckpoints(dir string, node int) map[int]bool {
	waves := map[int]bool{}
	matches, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("ckpt-w*-node-%03d.racp", node)))
	for _, m := range matches {
		var w, id int
		if _, err := fmt.Sscanf(filepath.Base(m), "ckpt-w%d-node-%d.racp", &w, &id); err == nil && id == node {
			waves[w] = true
		}
	}
	return waves
}

// resumeState is a consistent global checkpoint loaded from disk.
type resumeState struct {
	wave    int // the wave to (re-)run first
	waves   int // waves run before it
	workers []*ra.Worker
}

// loadResume finds the newest wave checkpointed by every node and
// restores all p workers from it. Returns nil when the directory holds
// no checkpoints (fresh start); errors when checkpoints exist but are
// unusable, rather than silently recomputing a multi-hour run.
func loadResume(dir string, g game.Game, p int) (*resumeState, error) {
	common := listCheckpoints(dir, 0)
	for i := 1; i < p; i++ {
		have := listCheckpoints(dir, i)
		for w := range common {
			if !have[w] {
				delete(common, w)
			}
		}
	}
	if len(common) == 0 {
		if any, _ := filepath.Glob(filepath.Join(dir, "ckpt-w*-node-*.racp")); len(any) > 0 {
			return nil, fmt.Errorf("checkpoints in %s cover no wave on all %d nodes (different node count?)", dir, p)
		}
		return nil, nil
	}
	waves := make([]int, 0, len(common))
	for w := range common {
		waves = append(waves, w)
	}
	sort.Ints(waves)
	wave := waves[len(waves)-1]

	st := &resumeState{wave: wave, workers: make([]*ra.Worker, p)}
	for i := 0; i < p; i++ {
		path := filepath.Join(dir, ckptName(wave, i))
		if err := st.loadNode(path, g, i, p); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return st, nil
}

func (st *resumeState) loadNode(path string, g game.Game, i, p int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	head := make([]byte, 20)
	if _, err := io.ReadFull(f, head); err != nil {
		return err
	}
	if string(head[:4]) != meshCkptMagic {
		return fmt.Errorf("bad mesh checkpoint magic %q", head[:4])
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != meshCkptVersion {
		return fmt.Errorf("unsupported mesh checkpoint version %d", v)
	}
	if nodes := int(binary.LittleEndian.Uint32(head[8:])); nodes != p {
		return fmt.Errorf("checkpoint is for %d nodes, engine has %d", nodes, p)
	}
	if i == 0 {
		st.waves = int(binary.LittleEndian.Uint64(head[12:]))
	}
	w, wave, err := ra.ReadCheckpoint(g, f)
	if err != nil {
		return err
	}
	if wave != st.wave {
		return fmt.Errorf("checkpoint body is for wave %d, file name says %d", wave, st.wave)
	}
	if w.ID() != i {
		return fmt.Errorf("checkpoint holds node %d's shard, want node %d", w.ID(), i)
	}
	st.workers[i] = w
	return nil
}

// clearCheckpoints removes the solve's checkpoint files after a
// successful run; a later solve in the same directory starts fresh.
func clearCheckpoints(dir string) {
	matches, _ := filepath.Glob(filepath.Join(dir, "ckpt-w*-node-*.racp"))
	for _, m := range matches {
		os.Remove(m)
	}
}
