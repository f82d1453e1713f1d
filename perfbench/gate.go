package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"retrograde/internal/db"
	"retrograde/internal/game"
	"retrograde/internal/ladder"
	"retrograde/internal/ra"
	"retrograde/internal/zdb"
)

// The correctness gate: per-rung value checksums of the awari ladder
// (standard rules, own-side loop scoring), produced by the scalar
// ra.SolveSequential oracle. Regenerate with
//
//	go run . -oracle 13 > checksums.json
//
//go:embed checksums.json
var checksumsJSON []byte

type rungSum struct {
	Stones    int    `json:"stones"`
	Positions uint64 `json:"positions"`
	FNV1a64   string `json:"fnv1a64"`
}

type checksumFile struct {
	Rules  string    `json:"rules"`
	Loop   string    `json:"loop"`
	Oracle string    `json:"oracle"`
	Rungs  []rungSum `json:"rungs"`
}

func oracleSums() ([]rungSum, error) {
	var f checksumFile
	if err := json.Unmarshal(checksumsJSON, &f); err != nil {
		return nil, fmt.Errorf("checksums.json: %w", err)
	}
	for i, r := range f.Rungs {
		if r.Stones != i {
			return nil, fmt.Errorf("checksums.json: entry %d is rung %d", i, r.Stones)
		}
	}
	return f.Rungs, nil
}

// valueSum is the FNV-1a 64 hash of a rung's values, each as two
// little-endian bytes.
func valueSum(vals []game.Value) string {
	h := fnv.New64a()
	var buf [2]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint16(buf[:], uint16(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// loadRung reads one rung file, sniffing its format the way raload's
// loadLocal does: db.Load for flat files, zdb.Load for block-compressed
// ones.
func loadRung(dir string, n int) ([]game.Value, error) {
	path := filepath.Join(dir, fmt.Sprintf("awari-%d.radb", n))
	info, err := db.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.Version == db.Version2 {
		z, err := zdb.Load(path)
		if err != nil {
			return nil, err
		}
		return z.Unpack()
	}
	t, err := db.Load(path)
	if err != nil {
		return nil, err
	}
	return t.Unpack(), nil
}

// verifyLadder reloads rungs 0..stones from dir and compares each with
// the oracle. It returns the rungs that failed (missing, unreadable or
// wrong) with the reason for each.
func verifyLadder(dir string, stones int) (failed []string, err error) {
	sums, err := oracleSums()
	if err != nil {
		return nil, err
	}
	if stones >= len(sums) {
		return nil, fmt.Errorf("no oracle checksum for rung %d", stones)
	}
	for n := 0; n <= stones; n++ {
		vals, err := loadRung(dir, n)
		switch {
		case errors.Is(err, os.ErrNotExist):
			failed = append(failed, fmt.Sprintf("rung %d: missing", n))
		case err != nil:
			failed = append(failed, fmt.Sprintf("rung %d: %v", n, err))
		case uint64(len(vals)) != sums[n].Positions:
			failed = append(failed, fmt.Sprintf("rung %d: %d positions, want %d", n, len(vals), sums[n].Positions))
		case valueSum(vals) != sums[n].FNV1a64:
			failed = append(failed, fmt.Sprintf("rung %d: checksum %s, want %s", n, valueSum(vals), sums[n].FNV1a64))
		}
	}
	return failed, nil
}

// oracleEngine solves every rung with the scalar SolveSequential oracle.
type oracleEngine struct{}

func (oracleEngine) Name() string { return "oracle" }

func (oracleEngine) Solve(g game.Game) (*ra.Result, error) { return ra.SolveSequential(g), nil }

func printOracle(stones int) error {
	f := checksumFile{Rules: "standard", Loop: "own-side", Oracle: "ra.SolveSequential"}
	_, err := ladder.Build(ladder.Config{Rules: rules, Loop: loop}, stones, oracleEngine{}, func(n int, r *ra.Result) {
		f.Rungs = append(f.Rungs, rungSum{Stones: n, Positions: uint64(len(r.Values)), FNV1a64: valueSum(r.Values)})
	})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}
