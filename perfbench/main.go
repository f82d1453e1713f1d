// Command perfbench is the repository's end-to-end benchmark. It runs the
// repository's own binaries (rabuild, raserve, rabroker) as users run
// them, times them from outside, and checks every answer against stored
// oracle checksums. With -trace 1 it instead drives the public functions
// of each layer in-process and reports per-layer numbers.
//
// Run it from the repository root through run.sh, which builds the
// harness and the binaries from source:
//
//	bash perfbench/run.sh --workload build --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Lines before it are a
// human-readable summary and a provenance record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure: its name and unit are the ones
// BENCHMARK.json declares.
type metric struct {
	name, unit string
}

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"p50_us", "us"},
}

// perLayer lists the metrics a traced run reports, on every workload.
// A layer the workload does not exercise reports 0: it did no work.
var perLayer = []metric{
	{"ra.init_s", "s"},
	{"ra.expand_s", "s"},
	{"ra.resolve_loops_s", "s"},
	{"ra.fill_s", "s"},
	{"ra.waves", "count"},
	{"ra.preds_generated", "count"},
	{"ra.updates_applied", "count"},
	{"ra.updates_stale", "count"},
	{"ra.stale_ratio", "ratio"},
	{"ra.init_pos_per_s", "1/s"},
	{"ra.expand_preds_per_s", "1/s"},
	{"ra.seq_solve_s", "s"},
	{"ra.concurrent_solve_s", "s"},
	{"ra.parallel_efficiency", "ratio"},
	{"ra.shard_imbalance", "ratio"},
	{"ladder.top_rung_s", "s"},
	{"ladder.lower_rungs_s", "s"},
	{"ladder.lookups", "count"},
	{"ladder.lower_rung_mib", "MiB"},
	{"db.save_s", "s"},
	{"db.bytes_written", "B"},
	{"runtime.alloc_mib", "MiB"},
	{"runtime.heap_peak_mib", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"oocore.solve_s", "s"},
	{"oocore.spilled", "count"},
	{"oocore.reloaded", "count"},
	{"oocore.spill_mib_written", "MiB"},
	{"oocore.spill_mib_read", "MiB"},
	{"oocore.prefetch_hit_ratio", "ratio"},
	{"oocore.write_stalls", "count"},
	{"oocore.peak_resident_mib", "MiB"},
	{"oocore.peak_pending_runs", "count"},
	{"oocore.rss_over_cap_mib", "MiB"},
	{"remote.solve_s", "s"},
	{"remote.frames", "count"},
	{"remote.data_frames", "count"},
	{"remote.bytes", "B"},
	{"remote.bytes_per_pred", "B"},
	{"remote.shard_imbalance", "ratio"},
	{"server.direct_qps", "1/s"},
	{"server.direct_p50_us", "us"},
	{"server.direct_p99_us", "us"},
	{"server.probe_ns", "ns"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_loads", "count"},
	{"server.resident_mib", "MiB"},
	{"server.overloads", "count"},
	{"server.cpu_us_per_query", "us"},
	{"broker.hop_p50_us", "us"},
	{"broker.hop_p99_us", "us"},
	{"broker.cpu_us_per_query", "us"},
	{"broker.backend_imbalance", "ratio"},
	{"broker.overloads", "count"},
	{"broker.failovers", "count"},
	{"broker.unrouted", "count"},
	{"client.retries", "count"},
	{"client.reconnects", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// outcome is what one run measured: the metrics of its kind plus the
// operation counts of the correctness gate.
type outcome struct {
	metrics   map[string]float64
	attempted uint64
	failed    uint64
	summary   []string // human-readable lines printed before the result
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	bin      string // directory holding rabuild, raserve, rabroker
	work     string // directory for scratch ladders and traces
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: build, build-mesh, serve")
	flag.Int64Var(&o.seed, "seed", 1, "input seed (the serve query stream)")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced in-process run reporting per-layer metrics")
	flag.StringVar(&o.bin, "bin", "", "directory of the built rabuild, raserve and rabroker")
	flag.StringVar(&o.work, "work", ".bench_build", "scratch directory")
	oracle := flag.Int("oracle", -1, "print the oracle checksums of awari rungs 0..n as JSON and exit")
	flag.Parse()

	if *oracle >= 0 {
		if err := printOracle(*oracle); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, l := range res.summary {
		fmt.Println(l)
	}
	if err := printResult(os.Stdout, o, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if res.failed > 0 {
		os.Exit(3)
	}
}

func run(o options) (*outcome, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want build, build-mesh or serve)", o.workload)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if o.bin == "" {
		return nil, fmt.Errorf("-bin is required (run through perfbench/run.sh)")
	}
	for _, b := range []string{"rabuild", "raserve", "rabroker"} {
		if _, err := os.Stat(filepath.Join(o.bin, b)); err != nil {
			return nil, fmt.Errorf("binary %s: %w", b, err)
		}
	}
	work, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	window := time.Duration(o.seconds) * time.Second
	var res *outcome
	switch {
	case o.trace != 0:
		res, err = tracedRun(w, o, work, window)
	case w.serve:
		res, err = serveRun(w, o, work, window)
	default:
		res, err = buildRun(w, o, work, window)
	}
	if err != nil {
		return nil, err
	}
	res.summary = append(res.summary, provenance(w, o))
	return res, nil
}

// printResult writes the final JSON line with exactly the metrics of
// the run's kind.
func printResult(f io.Writer, o options, res *outcome) error {
	want := endToEnd
	if o.trace != 0 {
		want = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(want))
	for _, m := range want {
		v, ok := res.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		ms[m.name] = value{v, m.unit}
	}
	if res.attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(line))
	return err
}

// quantile returns the exact nearest-rank q-quantile of sorted samples:
// the smallest sample with at least a share q of samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps float error in q·n from skipping a rank.
	i := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	return sorted[min(max(i, 1), len(sorted))-1]
}

// median is the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

// ratio returns a/b, and 0 when b is 0 (no work: nothing to divide).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nproc is the CPU count the benchmark sizes workers, callers and
// connections by.
func nproc() int { return runtime.NumCPU() }

const mib = 1 << 20
