package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"retrograde/internal/db"
	"retrograde/internal/ladder"
	"retrograde/internal/ra"
	"retrograde/internal/zdb"
)

// binDir holds rabuild, raserve and rabroker built from the repository
// the benchmark sits in.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/rabuild", "./cmd/raserve", "./cmd/rabroker")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building binaries: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestMetricsMatchBenchmarkJSON pins the harness's metric tables to the
// names and units BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  []metric
		want []entry
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: harness has %d metrics, BENCHMARK.json %d", c.kind, len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.name != c.want[i].Name || m.unit != c.want[i].Unit {
				t.Errorf("%s[%d]: harness %s (%s), BENCHMARK.json %s (%s)", c.kind, i, m.name, m.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: harness %s, BENCHMARK.json %s", i, w.name, spec.Workloads[i].Name)
		}
	}
}

// TestEveryMetricEmitted runs every workload at tiny scale, untraced and
// traced, and checks each prints exactly its metrics, correct, with
// every end-to-end metric non-zero.
func TestEveryMetricEmitted(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = nil
	for _, w := range saved {
		w.stones = 6
		if w.capStones > 0 {
			w.capStones = 5
		}
		workloads = append(workloads, w)
	}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				o := options{workload: w.name, seed: 7, seconds: 3, trace: trace, bin: binDir, work: t.TempDir()}
				res, err := run(o)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := printResult(&out, o, res); err != nil {
					t.Fatal(err)
				}
				var r struct {
					Correct           bool
					Attempted, Failed uint64
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal(out.Bytes(), &r); err != nil {
					t.Fatalf("%v: %s", err, out.Bytes())
				}
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", r.Correct, r.Attempted, r.Failed, strings.Join(res.summary, "\n"))
				}
				want := endToEnd
				if trace != 0 {
					want = perLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.name)
					case got.Unit != m.unit:
						t.Errorf("metric %s has unit %s, want %s", m.name, got.Unit, m.unit)
					case trace == 0 && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
				if trace != 0 {
					checkLayers(t, w, r.Metrics)
				}
			})
		}
	}
}

// checkLayers checks that the layers a workload exercises report work.
func checkLayers(t *testing.T, w workload, ms map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	var busy []string
	switch {
	case w.serve:
		busy = []string{"server.direct_qps", "server.probe_ns", "server.cache_loads", "broker.cpu_us_per_query", "ladder.top_rung_s", "db.bytes_written"}
	case w.engine == "tcp":
		busy = []string{"ra.init_s", "ra.preds_generated", "remote.solve_s", "remote.frames", "remote.bytes_per_pred"}
	default:
		busy = []string{"ra.init_s", "ra.parallel_efficiency", "ladder.lower_rung_mib", "db.save_s", "runtime.heap_peak_mib",
			"oocore.solve_s", "oocore.spilled", "oocore.reloaded"}
	}
	for _, n := range busy {
		if ms[n].Value <= 0 {
			t.Errorf("%s: %s = %v, want > 0", w.name, n, ms[n].Value)
		}
	}
}

// TestGateCatchesCorruptRung builds a small ladder with rabuild, checks
// it passes the gate as flat and as block-compressed files, then alters
// one value of one rung (re-saved with a valid file checksum, so only
// the value gate can see it) and removes another rung.
func TestGateCatchesCorruptRung(t *testing.T) {
	const stones = 7
	dir := t.TempDir()
	if out, err := exec.Command(filepath.Join(binDir, "rabuild"), "-stones", fmt.Sprint(stones), "-procs", "2", "-out", dir).CombinedOutput(); err != nil {
		t.Fatalf("rabuild: %v\n%s", err, out)
	}
	if bad, err := verifyLadder(dir, stones); err != nil || len(bad) != 0 {
		t.Fatalf("fresh ladder: %v %v", bad, err)
	}

	path := func(n int) string { return filepath.Join(dir, fmt.Sprintf("awari-%d.radb", n)) }
	tab, err := db.Load(path(6))
	if err != nil {
		t.Fatal(err)
	}
	z, err := zdb.Compress(tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := z.Save(path(6)); err != nil {
		t.Fatal(err)
	}
	if bad, err := verifyLadder(dir, stones); err != nil || len(bad) != 0 {
		t.Fatalf("ladder with a compressed rung: %v %v", bad, err)
	}

	tab.Set(3, tab.Get(3)^1)
	if err := tab.Save(path(6)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path(4)); err != nil {
		t.Fatal(err)
	}
	bad, err := verifyLadder(dir, stones)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 2 || !strings.HasPrefix(bad[0], "rung 4: missing") || !strings.HasPrefix(bad[1], "rung 6: checksum") {
		t.Fatalf("gate reported %q, want rung 4 missing and rung 6 wrong", bad)
	}
}

// TestChecksumsMatchOracle recomputes the stored checksums with the
// SolveSequential oracle (rungs 0..11; the full file goes to 13).
func TestChecksumsMatchOracle(t *testing.T) {
	sums, err := oracleSums()
	if err != nil {
		t.Fatal(err)
	}
	const top = 11
	_, err = ladder.Build(ladder.Config{Rules: rules, Loop: loop}, top, oracleEngine{}, func(n int, r *ra.Result) {
		if got := valueSum(r.Values); got != sums[n].FNV1a64 || uint64(len(r.Values)) != sums[n].Positions {
			t.Errorf("rung %d: oracle %s (%d positions), stored %s (%d)", n, got, len(r.Values), sums[n].FNV1a64, sums[n].Positions)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestResultLineShape checks the final line is one JSON object with
// exactly the contract's keys.
func TestResultLineShape(t *testing.T) {
	res := &outcome{metrics: map[string]float64{}, attempted: 3, failed: 1}
	for _, m := range endToEnd {
		res.metrics[m.name] = 1.5
	}
	var out bytes.Buffer
	if err := printResult(&out, options{}, res); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&out)
	lines := 0
	var keys map[string]json.RawMessage
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &keys); err != nil {
			t.Fatal(err)
		}
	}
	if lines != 1 || len(keys) != 4 || string(keys["correct"]) != "false" || string(keys["attempted"]) != "3" {
		t.Fatalf("result line %q", out.String())
	}
}
