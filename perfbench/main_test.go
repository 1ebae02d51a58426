package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// tinyScale runs every workload in well under a second per round.
var tinyScale = scale{
	colocateHorizonS: 2,
	fleetTenants:     24,
	fleetDevices:     4,
	fleetHorizonMS:   200,
	serveRequests:    500,
}

var blessdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	blessdBin = filepath.Join(dir, "blessd")
	build := exec.Command("go", "build", "-o", blessdBin, "bless/cmd/blessd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("building blessd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testConfig(t *testing.T, seed int64, rounds int, sc scale) *config {
	return &config{seed: seed, rounds: rounds, blessd: blessdBin, out: t.TempDir(), scale: sc}
}

// TestWorkloadsTinyScale runs every workload untraced and traced on two
// seeds and checks that each named metric is printed with its unit.
func TestWorkloadsTinyScale(t *testing.T) {
	for name, w := range workloads {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				res, err := measure(w, testConfig(t, seed, 2, tinyScale), name, traced, io.Discard)
				if err != nil {
					t.Fatalf("%s seed %d traced=%v: %v", name, seed, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d traced=%v: correct=%v attempted=%d failed=%d",
						name, seed, traced, res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayerUnits
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("%s traced=%v: metric %s = %+v, want a number in %s", name, traced, m.name, got, m.unit)
					}
				}
				if !traced {
					for _, m := range endToEnd {
						if res.Metrics[m.name].Value <= 0 {
							t.Errorf("%s seed %d: end-to-end %s = %v, want > 0", name, seed, m.name, res.Metrics[m.name].Value)
						}
					}
				}
			}
		}
	}
}

// TestPinnedDigests runs round 0 of the pinned workloads at full scale on
// the default seed.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale rounds")
	}
	for _, name := range []string{"colocate", "serve"} {
		w := workloads[name]
		cfg := testConfig(t, defaultSeed, 1, fullScale)
		r, err := w.run(cfg, roundSeed(defaultSeed, 0), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p := checkRounds(w, cfg, []*round{r}, []*round{r}); len(p) != 0 {
			t.Errorf("%s: %v", name, p)
		}
		if r.digest != w.pinned {
			t.Errorf("%s: digest %s, pinned %s", name, r.digest, w.pinned)
		}
	}
}

func TestCheckRoundsFlagsDrift(t *testing.T) {
	w := &workload{pinned: "aa", deterministic: true}
	cfg := &config{seed: defaultSeed, scale: fullScale}
	ref := []*round{{digest: "aa", sim: map[string]float64{"lat_vs_iso": 1}}}
	if p := checkRounds(w, cfg, ref, ref); len(p) != 0 {
		t.Fatalf("clean rounds flagged: %v", p)
	}
	rerun := []*round{{digest: "bb", sim: map[string]float64{"lat_vs_iso": 1.5}}}
	if p := checkRounds(w, cfg, rerun, ref); len(p) != 3 {
		t.Fatalf("want digest, simulated-metric and pin failures, got %v", p)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric tables in
// step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
	same := func(kind string, got []m, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayerUnits)
}

func TestRoundsFor(t *testing.T) {
	for _, c := range []struct {
		seconds int
		nominal time.Duration
		want    int
	}{
		{20, 500 * time.Millisecond, 40},
		{1, time.Second, 3},
		{20, 1250 * time.Millisecond, 16},
	} {
		if got := roundsFor(c.seconds, c.nominal); got != c.want {
			t.Errorf("roundsFor(%d, %v) = %d, want %d", c.seconds, c.nominal, got, c.want)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	// Fields 14 and 15 are utime=250 and stime=50 ticks; the command name
	// holds a space and a parenthesis.
	line := "4242 (bless d) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 50 0 0 20 0 7 0 123 1000000 2000 18446744073709551615"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 300 * clockTick; got != want {
		t.Fatalf("cpu = %v, want %v", got, want)
	}
	if _, err := parseProcStat("4242 (blessd) S 1 2"); err == nil {
		t.Fatal("short stat line accepted")
	}
	if _, err := parseProcStat("no command"); err == nil {
		t.Fatal("line without a command field accepted")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tblessd\nVmPeak:\t  900000 kB\nVmHWM:\t   17408 kB\nVmRSS:\t   16384 kB\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 17 {
		t.Fatalf("VmHWM = %v MB, want 17", got)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// topOutput is `go tool pprof -top` output in the format parseTop reads.
const topOutput = `File: blessd
Type: cpu
Time: 2026-01-01 00:00:00 UTC
Duration: 2.11s, Total samples = 1.70s (80.67%)
Showing nodes accounting for 1.70s, 100% of 1.70s total
      flat  flat%   sum%        cum   cum%
     0.85s 50.00% 50.00%      0.85s 50.00%  internal/runtime/syscall.Syscall6
     0.17s 10.00% 60.00%      0.34s 20.00%  encoding/gob.(*Encoder).encodeStruct
     0.17s 10.00% 70.00%      0.17s 10.00%  runtime.mallocgc
     0.17s 10.00% 80.00%      0.17s 10.00%  bless/cmd/blessd/internal/planner.(*serveState).run
     0.17s 10.00% 90.00%      0.17s 10.00%  bless/internal/core.fnvFold (inline)
     0.17s 10.00%   100%      0.17s 10.00%  slices.pdqsortCmpFunc[go.shape.*bless/internal/sim.exec]
`

func TestParseTop(t *testing.T) {
	got, err := parseTop([]byte(topOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"internal/runtime/syscall":          0.5,
		"encoding/gob":                      0.1,
		"runtime":                           0.1,
		"bless/cmd/blessd/internal/planner": 0.1,
		"bless/internal/core":               0.1,
		"slices":                            0.1,
	}
	if len(got) != len(want) {
		t.Fatalf("packages = %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", k, got[k], v)
		}
	}
	if _, err := parseTop([]byte("no table here\n")); err == nil {
		t.Error("output without a header accepted")
	}
	if _, err := parseTop([]byte("      flat  flat%   sum%        cum   cum%\n garbage\n")); err == nil {
		t.Error("malformed row accepted")
	}
}

func TestLayerOf(t *testing.T) {
	for pkg, want := range map[string]string{
		"bless/internal/sim":                "sim.cpu_share",
		"bless/cmd/blessd/internal/planner": "planner.cpu_share",
		"net/rpc":                           "rpc.cpu_share",
		"internal/runtime/syscall":          "rpc.cpu_share",
		"internal/runtime/maps":             "go.cpu_share",
		"runtime":                           "go.cpu_share",
		"runtime/pprof":                     "go.cpu_share",
		"sort":                              "",
		"bless/internal/simx":               "",
	} {
		if got := layerOf(pkg); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", pkg, got, want)
		}
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := medianOf(v); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := medianOf([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := quantileOf(v, 0.99); got != 5 {
		t.Errorf("p99 = %v", got)
	}
	if got := quantileOf(v, 0.5); got != 3 {
		t.Errorf("p50 = %v", got)
	}
}
