package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"retrograde/internal/awari"
	"retrograde/internal/ra"
)

// workload is one set of inputs the benchmark runs. The build workloads
// differ in the engine rabuild is asked for, so each loads a different
// layer: the default Concurrent SWAR engine, or the TCP mesh with the
// scalar kernel. serve loads the serving tier and none of the engines.
//
// rabuild under -memlimit is not a workload: its wall time is dominated
// by the fsync latency of its spill store, which on the shared virtual
// disk of a 2-core VM swung one ten-run set from 7.3 s to 11.6 s per
// build while its CPU time held steady. The traced build run measures
// the out-of-core layer instead (capStones).
type workload struct {
	name   string
	stones int    // top rung built, or served
	engine string // rabuild -engine: concurrent or tcp
	// capStones > 0: the traced run also solves this rung out-of-core,
	// capped at capShare of its in-core state.
	capStones int
	serve     bool
	// Serving parameters: backends behind the broker, queries per batch.
	backends, batch int
}

// capShare is the out-of-core memory cap as a share of the rung's
// in-core state.
const capShare = 0.25

var workloads = []workload{
	{name: "build", stones: 13, engine: "concurrent", capStones: 12},
	{name: "build-mesh", stones: 12, engine: "tcp"},
	{name: "serve", stones: 13, serve: true, backends: 2, batch: 128},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

var (
	rules = awari.Standard
	loop  = awari.LoopOwnSide
)

// rabuildArgs is the command line the workload runs, writing to out.
func (w workload) rabuildArgs(out string) []string {
	return []string{"-stones", strconv.Itoa(w.stones), "-procs", strconv.Itoa(nproc()), "-engine", w.engine, "-out", out}
}

// kernel is the wave kernel the workload's engine resolves: the TCP
// mesh always runs scalar, the in-core engine SWAR.
func (w workload) kernel() ra.Kernel {
	if w.engine == "tcp" {
		return ra.KernelScalar
	}
	return ra.KernelSWAR
}

// provenance records what produced a result, as one JSON line.
func provenance(w workload, o options) string {
	p := map[string]any{
		"workload":   w.name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"commit":     commit(),
		"source":     sourceDigest("."),
		"goVersion":  runtime.Version(),
		"nproc":      nproc(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"stones":     w.stones,
	}
	if w.serve {
		p["backends"], p["callers"], p["batch"] = w.backends, nproc(), w.batch
		p["streamSeed"] = o.seed
	} else {
		p["rabuild"] = strings.Join(w.rabuildArgs("<tmp>"), " ")
	}
	b, _ := json.Marshal(p)
	return "provenance " + string(b)
}

// commit names the source revision: the VCS stamp when the harness was
// built inside a git checkout, else git itself, else "unknown" (the
// source digest still identifies the code).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under cmd/ and internal/,
// in path order: two results with the same digest measured the same
// program.
func sourceDigest(root string) string {
	var paths []string
	paths = append(paths, filepath.Join(root, "go.mod"))
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil
		})
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
