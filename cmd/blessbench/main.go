// Command blessbench regenerates the paper's tables and figures on the
// simulated testbed. Run with -list to enumerate experiment ids, -exp <id>
// to run one (or "all"), and -quick for reduced-scale smoke runs.
//
// Observability: -trace FILE and -metrics FILE execute one instrumented
// fig13-style pair run (resnet50+vgg11, even quotas, workload B) and export
// its Chrome trace-event JSON (loadable in Perfetto or chrome://tracing) and
// streaming-metrics snapshot. They combine freely with -exp.
//
// Verification: -invariants attaches the internal/invariant checker to every
// harness run an experiment performs and fails on any universal violation.
// -smoke FILE runs the fixed benchmark-smoke pair and writes its JSON
// summary; -baseline FILE additionally compares against a committed summary
// and fails on a >10% mean-latency regression (the CI perf gate). The smoke
// run also re-executes with a zero-rate fault injector attached and fails if
// the digest shifts — the fault path must be transparent when inert.
//
// Fault injection: -chaos runs the canonical degraded-mode scenario — the
// smoke pair under a 1% kernel-fault rate and a transient device stall, with
// vgg11 crashing mid-run and resnet101 admitted afterwards — twice, verifies
// the two same-seed runs produce identical completion digests, and prints the
// recovery accounting (retries, aborts, churn, per-client delivery).
//
// Fleet: -fleet runs the control-plane scenario — 200 tenants over a
// simulated 32-GPU heterogeneous pool with load-aware routing, live
// migration, rebalancing and autoscaling — serial, in parallel copies, and
// with the migration trigger order permuted, and fails unless all fleet
// invariants pass and every digest is bit-identical. -fleet -smoke is the
// scaled-down CI gate (24 tenants, 4 devices). Note -smoke doubles as the
// benchmark-smoke file flag: bare -smoke selects fleet-smoke mode alongside
// -fleet, -smoke=FILE writes the benchmark summary.
//
// Snapshot/restore: -fleet -snapshot FILE cuts the fleet scenario at a
// virtual-time barrier (-snapshot-at, in virtual milliseconds; default half
// the horizon) and writes the canonical digest-sealed snapshot to FILE.
// -snapshot-import FILE restores one in a fresh process: the embedded
// scenario is replayed to the barrier, the replayed state proven
// byte-identical to the snapshot's state section, and the run continued to
// completion — failing unless completion digest, checker digest and stats
// match an uninterrupted run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bless/internal/harness"
	"bless/internal/invariant"
	"bless/internal/sim"
)

func main() {
	exp := flag.String("exp", "", "experiment id to run, or 'all'")
	list := flag.Bool("list", false, "list experiment ids")
	quick := flag.Bool("quick", false, "reduced-scale smoke run")
	tracePath := flag.String("trace", "", "write Chrome trace JSON of an instrumented pair run to this file")
	metricsPath := flag.String("metrics", "", "write a metrics snapshot JSON of an instrumented pair run to this file")
	invariants := flag.Bool("invariants", false, "verify simulator invariants on every run; fail on violation")
	var smoke optionalString
	flag.Var(&smoke, "smoke", "-smoke=FILE runs the benchmark-smoke pair and writes its JSON summary; bare -smoke with -fleet selects the scaled-down fleet gate")
	baselinePath := flag.String("baseline", "", "with -smoke=FILE: committed summary to compare against (>10% mean-latency regression fails)")
	chaosFlag := flag.Bool("chaos", false, "run the chaos scenario (faults, stall, crash, join) twice and verify determinism")
	fleetFlag := flag.Bool("fleet", false, "run the fleet control-plane scenario (200 tenants, 32-GPU pool) and verify invariants + digest identity; with -smoke: reduced scale")
	seed := flag.Int64("seed", 7, "seed for the fleet control plane's deterministic decisions")
	parallel := flag.Int("parallel", 0, "worker count for independent experiment runs (0 = GOMAXPROCS, 1 = serial); output is identical at any setting")
	snapPath := flag.String("snapshot", "", "with -fleet: cut the scenario at a virtual-time barrier and write the canonical snapshot to this file")
	snapAt := flag.Float64("snapshot-at", 0, "with -fleet -snapshot: barrier instant in virtual milliseconds (0 = half the horizon)")
	snapImport := flag.String("snapshot-import", "", "restore a snapshot file in this process: replay to the barrier, prove byte-identity, continue, and verify digests against the uninterrupted run")
	flag.Parse()

	if *invariants {
		repro := "go run ./cmd/blessbench " + strings.Join(os.Args[1:], " ")
		harness.EnableInvariants(invariant.Options{FailOnViolation: true, Repro: repro})
	}

	if *snapImport != "" {
		if err := runSnapshotImport(*snapImport); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *snapPath != "" {
		if !*fleetFlag {
			fmt.Fprintln(os.Stderr, "-snapshot needs -fleet (it cuts the fleet scenario)")
			os.Exit(2)
		}
		if err := runSnapshotExport(*snapPath, smoke.set && smoke.val == "", *seed, *snapAt); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *fleetFlag {
		if err := runFleet(smoke.set && smoke.val == "", *seed, *parallel); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *exp == "" && !*list && *tracePath == "" && *metricsPath == "" && !*chaosFlag && smoke.val == "" {
			return
		}
	}

	if smoke.set && smoke.val == "" && !*fleetFlag {
		fmt.Fprintln(os.Stderr, "bare -smoke needs -fleet; use -smoke=FILE for the benchmark-smoke summary")
		os.Exit(2)
	}
	if smoke.val != "" {
		if err := runSmoke(smoke.val, *baselinePath, *parallel); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *exp == "" && !*list && *tracePath == "" && *metricsPath == "" && !*chaosFlag {
			return
		}
	}

	if *chaosFlag {
		if err := runChaos(*quick); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *exp == "" && !*list && *tracePath == "" && *metricsPath == "" {
			return
		}
	}

	observed := *tracePath != "" || *metricsPath != ""
	if *list || (*exp == "" && !observed) {
		fmt.Println("available experiments:")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	opt := harness.Options{Quick: *quick, Parallel: *parallel}
	run := func(e harness.Experiment) {
		start := time.Now()
		table, err := e.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(table.Render())
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	switch {
	case *exp == "all":
		for _, e := range harness.Experiments() {
			run(e)
		}
	case *exp != "":
		e, err := harness.Lookup(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		run(e)
	}

	if observed {
		if err := runObserved(*tracePath, *metricsPath, *quick); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// optionalString is a flag that may be given bare (-smoke) or with a value
// (-smoke=FILE). Bare usage leaves val empty with set true.
type optionalString struct {
	set bool
	val string
}

func (o *optionalString) String() string { return o.val }

func (o *optionalString) Set(s string) error {
	o.set = true
	if s != "true" {
		o.val = s
	}
	return nil
}

// IsBoolFlag lets the flag package accept bare -smoke.
func (o *optionalString) IsBoolFlag() bool { return true }

// runObserved executes the instrumented pair run behind -trace/-metrics and
// writes the requested artifacts.
func runObserved(tracePath, metricsPath string, quick bool) error {
	horizon := 500 * sim.Millisecond
	if quick {
		horizon = 100 * sim.Millisecond
	}
	o, err := harness.ObservedPairRun([2]string{"resnet50", "vgg11"}, [2]float64{0.5, 0.5}, "B", horizon)
	if err != nil {
		return fmt.Errorf("observed run: %w", err)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := o.Collector.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace (%d kernel spans, %d decision events) to %s\n",
			len(o.Collector.Recorder.Spans), len(o.Collector.Events), tracePath)
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := o.Registry.Snapshot().WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("writing metrics: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote metrics snapshot (%d series) to %s\n", len(o.Registry.Names()), metricsPath)
	}
	return nil
}
