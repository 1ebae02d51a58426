// Command perfbench is the repository's end-to-end benchmark. One command
// runs one workload with a seed, does a fixed amount of work, checks the
// outputs, and prints every metric by name and unit; its last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"setup_s": {"value": 0.03, "unit": "s"}, ...}}
//
// Run it through perfbench/run.sh, which builds it and blessd from the
// checkout first:
//
//	bash perfbench/run.sh --workload colocate --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - colocate: one simulated A100 under BLESS with nasnet, bert, resnet50
//     and vgg11 at quota 0.25 each, seeded Poisson arrivals at 60% of each
//     tenant's ISO capacity (harness.Run). Loads profiler, sim and core.
//   - fleet: harness.FleetScenarioN(seed, 200, 32, 2s) through
//     harness.RunFleet. Loads profiler, sim and core on many sparse devices,
//     plus fleet and invariant.
//   - serve: a blessd child process on loopback serving four resnet50
//     tenants at quota 0.225; two are offered about half their bubble-free
//     rate (admitted, never shed), two about twice it (shed path). A closed
//     loop from this process: 2 TCP connections, 2 issuing goroutines, a
//     fixed window and a fixed request count per tenant. Loads rpc and
//     planner; bypasses sim and core.
//
// A run is a fixed number of rounds, each a fixed amount of work on inputs
// drawn from (seed, round index); the round count is a pure function of
// --seconds (see roundsFor), never of elapsed time. Every metric is the
// median over the run's rounds.
//
// End-to-end metrics (--trace 0). Rates are labelled: "wall" rates are
// measured host time, "virtual" ones are simulated time.
//
//	setup_s         s     colocate: cold profiles of 4 apps + deploy; fleet:
//	                      cold profiles of 4 apps x 3 SM classes + fleet
//	                      build; serve: blessd exec -> ServeOpen reply
//	host_req_per_s  1/s   simulated requests per wall second (serve:
//	                      decisions per wall second)
//	cpu_us_per_req  us    user+sys CPU per request of the process doing the
//	                      work (this process; serve: blessd from /proc)
//	rss_mb          MB    peak RSS of that process
//	p50_us, p99_us  us    serve: wall client round trip; colocate: virtual
//	                      request latency; fleet: median of tenants' mean and
//	                      mean of tenants' p99 virtual latency
//	lat_vs_iso      x     mean over tenants of mean virtual latency / ISO
//	                      (fleet: ISO on the host device's SM class; serve:
//	                      admitted (wait+service)/service)
//	p99_vs_iso      x     worst tenant p99 virtual latency / ISO
//	sm_util         frac  GPU.Utilization (fleet: mean over devices; serve:
//	                      the lane model's SM occupancy of admitted work)
//	done_frac       frac  completed / submitted (serve: answered / sent)
//	admit_frac      frac  serve: admitted / offered requests; colocate and
//	                      fleet: tenants placed / tenants offered
//
// The traced run (--trace 1) runs the same rounds with spans around each
// layer call and CPU profiles (of this process; of blessd on serve), which
// give the *.cpu_share metrics of the untraced path. It then re-runs its
// first rounds with the obs bus, a kernel-counting sim.Tracer and the
// invariant checkers attached, requires their digests and simulated metrics
// to equal the first run's, and prints the per-layer metrics (see
// perLayerUnits), with trace.overhead_frac the re-run's extra host time.
// Spans are written to <out>/spans-<workload>-seed<seed>.json.
//
// Correctness: round 0's digest is pinned for the default seed on colocate
// and serve; serve must answer every request, never shed an in-quota tenant,
// report no serve-invariant violations and match an in-process replay of
// its lanes; invariant violations fail the run. The fleet completion digest
// is printed but not pinned, because RunFleet is not yet deterministic
// across runs of one input: fleet.digest_drift counts re-run rounds whose
// digest changed. Any failed check prints "correct": false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the pinned digests were recorded with.
const defaultSeed = 1

// endToEnd lists the end-to-end metrics and their units, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"host_req_per_s", "1/s"},
	{"cpu_us_per_req", "us"},
	{"rss_mb", "MB"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"lat_vs_iso", "x"},
	{"p99_vs_iso", "x"},
	{"sm_util", "frac"},
	{"done_frac", "frac"},
	{"admit_frac", "frac"},
}

// perLayerUnits lists the per-layer metrics of the traced run and their
// units. A layer a workload does not exercise reports 0.
var perLayerUnits = []struct{ name, unit string }{
	{"profiler.profiles", "count"},
	{"profiler.ms_per_profile", "ms"},
	{"sim.kernels", "count"},
	{"sim.host_ns_per_kernel", "ns"},
	{"sim.cpu_share", "frac"},
	{"core.squads", "count"},
	{"core.kernels_per_squad", "x"},
	{"core.configs_per_squad", "x"},
	{"core.spatial_frac", "frac"},
	{"core.switches", "count"},
	{"core.cpu_share", "frac"},
	{"fleet.routed", "count"},
	{"fleet.migrations", "count"},
	{"fleet.migrations_rejected", "count"},
	{"fleet.rebalances", "count"},
	{"fleet.scaleups", "count"},
	{"fleet.cpu_share", "frac"},
	{"fleet.digest_drift", "count"},
	{"invariant.events", "count"},
	{"invariant.violations", "count"},
	{"invariant.cpu_share", "frac"},
	{"obs.events", "count"},
	{"obs.publish_ns_per_event", "ns"},
	{"planner.decision_ns", "ns"},
	{"planner.batch_mean", "x"},
	{"planner.wait_p99_ms", "ms"},
	{"planner.cpu_share", "frac"},
	{"lane.decide_ns", "ns"},
	{"rpc.cpu_share", "frac"},
	{"gen.cpu_us_per_req", "us"},
	{"go.allocs_per_req", "count"},
	{"go.gc_cycles", "count"},
	{"go.cpu_share", "frac"},
	{"trace.overhead_frac", "frac"},
}

// config is one run's settings.
type config struct {
	seed   int64
	rounds int
	blessd string // blessd binary (serve)
	out    string // directory for spans and profiles
	scale  scale
}

// scale sizes one round of each workload.
type scale struct {
	colocateHorizonS float64 // virtual seconds of arrivals
	fleetTenants     int
	fleetDevices     int
	fleetHorizonMS   int // virtual
	serveRequests    int // per tenant
}

// fullScale is the benchmark's workload size.
var fullScale = scale{
	colocateHorizonS: 20,
	fleetTenants:     200,
	fleetDevices:     32,
	fleetHorizonMS:   2000,
	serveRequests:    15000,
}

// round is one round's measurement.
type round struct {
	setup     time.Duration
	wall      time.Duration // host time of the measured work
	cpu       time.Duration // CPU time of the process doing the work
	reqs      int64         // requests completed (serve: answered)
	attempted int64
	failed    int64
	digest    string
	// sim holds the round's simulated (virtual-time) metrics, which a
	// deterministic workload must repeat exactly when the round is re-run.
	sim map[string]float64
	// host holds the round's other end-to-end values (p50_us, p99_us, and
	// rss_mb when the work ran in a child process).
	host map[string]float64
	// layer holds per-layer counters and timings.
	layer    map[string]float64
	problems []string
}

// workload is one benchmark workload.
type workload struct {
	// nominal is the host time of one round on the reference host (2-core
	// Xeon); it only sets how many rounds a --seconds budget buys.
	nominal time.Duration
	// pinned is the expected digest for defaultSeed ("" = not pinned).
	pinned string
	// deterministic workloads must repeat a round's digest and simulated
	// metrics exactly when the round is re-run with instrumentation.
	deterministic bool
	// run executes one round whose inputs derive from seed.
	run func(cfg *config, seed int64, tr *tracer) (*round, error)
}

var workloads = map[string]*workload{
	"colocate": {nominal: 500 * time.Millisecond, pinned: colocatePinned, deterministic: true, run: colocateRound},
	"fleet":    {nominal: 2500 * time.Millisecond, run: fleetRound},
	"serve":    {nominal: 1250 * time.Millisecond, pinned: servePinned, deterministic: true, run: serveRound},
}

// roundSeed derives round i's input seed from the run's seed. Each round
// draws fresh inputs, so a run's medians do not follow one draw's arrival
// bursts: over ten seeds, the spread of colocate's p99_vs_iso was about 0.5
// with one input set per run and about 0.1 with a fresh set per round.
func roundSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i)
}

// roundsFor converts a --seconds budget into a fixed round count.
func roundsFor(seconds int, nominal time.Duration) int {
	n := int(math.Round(float64(seconds) * float64(time.Second) / float64(nominal)))
	return max(n, 3)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: colocate, fleet or serve")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 20, "run size; sets the fixed round count")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	blessd := fs.String("blessd", ".bench_build/blessd", "blessd binary (serve)")
	out := fs.String("out", ".bench_out", "directory for spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload colocate|fleet|serve, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := &config{seed: *seed, rounds: roundsFor(*seconds, w.nominal), blessd: *blessd, out: *out, scale: fullScale}
	res, err := measure(w, cfg, *name, *traceFlag == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// instrumentedRounds is how many rounds of a traced run attach the
// program's instrumentation after the profiled reference rounds. On
// colocate the invariant checker makes such a round about ten times slower.
const instrumentedRounds = 2

// measure runs the workload's rounds and assembles the result. A traced run
// runs the same rounds with spans and CPU profiles (the reference), then
// instrumentedRounds more with the obs bus, a kernel-counting sim.Tracer and
// the invariant checkers attached.
func measure(w *workload, cfg *config, name string, traced bool, stdout io.Writer) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer(cfg.out)
		tr.profile = true
	}
	ref, err := runRounds(w, cfg, cfg.rounds, tr)
	if err != nil {
		return nil, err
	}
	problems := checkRounds(w, cfg, ref, ref)
	res := &result{Metrics: map[string]metric{}}
	res.count(ref)
	if !traced {
		for k, v := range endToEndValues(ref) {
			res.Metrics[k] = metric{Value: v, Unit: unitOf(endToEnd, k)}
		}
	} else {
		tr.profile, tr.instrument = false, true
		inst, err := runRounds(w, cfg, min(instrumentedRounds, cfg.rounds), tr)
		if err != nil {
			return nil, err
		}
		res.count(inst)
		problems = append(problems, checkRounds(w, cfg, inst, ref)...)
		layer, err := layerValues(w, ref, inst, tr)
		if err != nil {
			return nil, err
		}
		for _, m := range perLayerUnits {
			res.Metrics[m.name] = metric{Value: layer[m.name], Unit: m.unit}
		}
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", name, cfg.seed))
		if err := tr.spans.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "spans: %s (%d spans)\n", path, len(tr.spans.list))
	}
	fmt.Fprintf(stdout, "digest: %s\n", strings.Join(digests(ref), " "))
	for _, p := range problems {
		fmt.Fprintf(stdout, "check failed: %s\n", p)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	return res, nil
}

// count adds the rounds' requests to the result's totals.
func (res *result) count(rounds []*round) {
	for _, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
}

// digests lists the rounds' distinct digests in first-seen order.
func digests(rounds []*round) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range rounds {
		if !seen[r.digest] {
			seen[r.digest] = true
			out = append(out, r.digest)
		}
	}
	return out
}

// runRounds runs n rounds.
func runRounds(w *workload, cfg *config, n int, tr *tracer) ([]*round, error) {
	var out []*round
	for i := 0; i < n; i++ {
		r, err := w.run(cfg, roundSeed(cfg.seed, i), tr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// checkRounds collects the rounds' own failed checks and compares each
// re-run round with the reference round of the same index; on a
// deterministic workload any difference is a correctness failure. The
// pinned digest is round 0's at defaultSeed and full scale.
func checkRounds(w *workload, cfg *config, rounds, ref []*round) []string {
	var problems []string
	for i, r := range rounds {
		for _, p := range r.problems {
			problems = append(problems, fmt.Sprintf("round %d: %s", i, p))
		}
		if !w.deterministic || r == ref[i] {
			continue
		}
		if r.digest != ref[i].digest {
			problems = append(problems, fmt.Sprintf("round %d: re-run digest %s, first run %s", i, r.digest, ref[i].digest))
		}
		for k, v := range ref[i].sim {
			if r.sim[k] != v {
				problems = append(problems, fmt.Sprintf("round %d: re-run simulated %s = %v, first run %v", i, k, r.sim[k], v))
			}
		}
	}
	if w.pinned != "" && cfg.seed == defaultSeed && cfg.scale == fullScale && rounds[0].digest != w.pinned {
		problems = append(problems, fmt.Sprintf("round 0 digest %s, pinned %s for seed %d", rounds[0].digest, w.pinned, defaultSeed))
	}
	return problems
}

// endToEndValues reduces the rounds to the end-to-end metrics.
func endToEndValues(rounds []*round) map[string]float64 {
	out := map[string]float64{}
	out["setup_s"] = median(rounds, func(r *round) float64 { return r.setup.Seconds() })
	out["host_req_per_s"] = median(rounds, func(r *round) float64 { return float64(r.reqs) / r.wall.Seconds() })
	out["cpu_us_per_req"] = median(rounds, func(r *round) float64 { return float64(r.cpu.Microseconds()) / float64(r.reqs) })
	out["rss_mb"] = selfPeakRSSMB()
	for k := range rounds[0].sim {
		out[k] = median(rounds, func(r *round) float64 { return r.sim[k] })
	}
	for k := range rounds[0].host {
		out[k] = median(rounds, func(r *round) float64 { return r.host[k] })
	}
	return out
}

// layerValues reduces the reference and instrumented rounds to the
// per-layer metrics: counters only the instrumentation sees come from the
// instrumented rounds, everything else from the reference rounds.
func layerValues(w *workload, ref, inst []*round, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	for k := range inst[0].layer {
		out[k] = median(inst, func(r *round) float64 { return r.layer[k] })
	}
	for k := range ref[0].layer {
		out[k] = median(ref, func(r *round) float64 { return r.layer[k] })
	}
	// Re-run round i has the inputs of reference round i: pair them.
	var nsPerKernel, overhead []float64
	for i, r := range inst {
		if k := r.layer["sim.kernels"]; k > 0 {
			nsPerKernel = append(nsPerKernel, float64(ref[i].wall)/k)
		}
		overhead = append(overhead, float64(r.wall)/float64(ref[i].wall)-1)
	}
	out["sim.host_ns_per_kernel"] = medianOf(nsPerKernel)
	out["trace.overhead_frac"] = medianOf(overhead)
	if !w.deterministic {
		// The fleet's run-to-run drift, made visible: re-run rounds whose
		// digest differs from the first run of the same inputs.
		var drift float64
		for i, r := range inst {
			if r.digest != ref[i].digest {
				drift++
			}
		}
		out["fleet.digest_drift"] = drift
	}
	shares, err := tr.cpuShares()
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		out[k] = v
	}
	return out, nil
}

// median returns the median of f over the rounds.
func median(rounds []*round, f func(*round) float64) float64 {
	v := make([]float64, len(rounds))
	for i, r := range rounds {
		v[i] = f(r)
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileOf returns the q-quantile (0..1) of v by nearest rank.
func quantileOf(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func unitOf(table []struct{ name, unit string }, name string) string {
	for _, m := range table {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// cpuTime is this process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB is this process's peak resident set so far.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
