// The engine conformance table: every Concurrent shape must produce the
// database SolveSequential produces, name the kernel it ran, and pass the
// independent audit. The ladder-building games live in packages that
// import ra, so this is an external test. The TCP mesh runs the same
// games and checks in remote's TestTCPMatchesSequential.
package ra_test

import (
	"testing"

	"retrograde/internal/awari"
	"retrograde/internal/chess"
	"retrograde/internal/game"
	"retrograde/internal/kalah"
	"retrograde/internal/ladder"
	"retrograde/internal/nim"
	"retrograde/internal/ra"
	"retrograde/internal/ttt"
)

// conformanceGames covers acyclic play (nim), terminals of both kinds
// (ttt), cycles resolved as draws with capture exits (KRK), and the
// lane-eligible games with lookups into lower rungs (kalah, awari).
func conformanceGames(t *testing.T) []game.Game {
	t.Helper()
	kal, err := kalah.BuildLadder(4, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	aw, err := ladder.Build(ladder.Config{Rules: awari.Standard, Loop: awari.LoopOwnSide}, 5, ra.Sequential{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return []game.Game{
		nim.MustNew(3, 4),
		nim.MustNew(2, 7),
		ttt.New(),
		chess.MustNew(4),
		kal.Slice(4),
		aw.Slice(5),
	}
}

// hotPathShapes are the shapes that gate the packed-state / pooled-batch
// / self-delivery hot path: the unbatched ablation, the pooled default,
// and many shards with tiny batches (heavy pool churn).
func hotPathShapes(k ra.Kernel) []ra.Engine {
	cfg := ra.Config{Kernel: k}
	return []ra.Engine{
		ra.Concurrent{Workers: 3, Batch: 1, Config: cfg},
		ra.Concurrent{Workers: 4, Config: cfg},
		ra.Concurrent{Workers: 9, Batch: 8, Config: cfg},
	}
}

// concurrentShapes are the remaining worker counts, batch sizes and
// partition groups.
func concurrentShapes(k ra.Kernel) []ra.Engine {
	cfg := ra.Config{Kernel: k}
	return []ra.Engine{
		ra.Concurrent{Workers: 1, Config: cfg},
		ra.Concurrent{Workers: 2, Config: cfg},
		ra.Concurrent{Workers: 4, Batch: 16, Config: cfg},
		ra.Concurrent{Workers: 7, Batch: 1000, Group: 64, Config: cfg},
		ra.Concurrent{Workers: 16, Config: cfg},
	}
}

// checkConformance solves every conformance game with every shape, under
// the scalar kernel and, where the game is lane-eligible, under SWAR.
func checkConformance(t *testing.T, shapes func(ra.Kernel) []ra.Engine) {
	t.Helper()
	for _, g := range conformanceGames(t) {
		want := ra.SolveSequential(g)
		kernels := []ra.Kernel{ra.KernelScalar}
		if _, ok := ra.LaneEligible(g); ok {
			kernels = append(kernels, ra.KernelSWAR)
		}
		for _, k := range kernels {
			kernel := "scalar"
			if k == ra.KernelSWAR {
				kernel = "swar"
			}
			for _, e := range shapes(k) {
				label := g.Name() + " " + e.Name() + " " + kernel
				got, err := e.Solve(g)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				compareResults(t, label, want, got)
				if got.Kernel != kernel {
					t.Errorf("%s: kernel %q", label, got.Kernel)
				}
				if err := ra.Audit(g, got); err != nil {
					t.Errorf("%s: audit: %v", label, err)
				}
			}
		}
	}
}

func TestHotPathEngineParity(t *testing.T) { checkConformance(t, hotPathShapes) }

func TestConcurrentMatchesSequential(t *testing.T) { checkConformance(t, concurrentShapes) }
