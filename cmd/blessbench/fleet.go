package main

import (
	"fmt"
	"sort"
	"time"

	"bless/internal/harness"
	"bless/internal/sim"
)

// runFleet is the -fleet command: the canonical fleet-control-plane scenario
// — 200 tenants over a simulated 32-GPU heterogeneous pool (three device
// speed classes), live migration, sustained-shortfall rebalancing and
// autoscaling enabled — executed three ways and cross-checked:
//
//  1. serial reference run, fleet invariants enforced;
//  2. parallel copies under the deterministic executor — every digest must
//     equal the serial one;
//  3. a migration-order permutation — same-instant migration triggers
//     scheduled in reverse order must not move the digest by a bit.
//
// smoke scales down to 24 tenants x 4 devices (the check.sh gate).
func runFleet(smoke bool, seed int64, parallel int) error {
	tenants, devices, horizon := 200, 32, 250*sim.Millisecond
	if smoke {
		tenants, devices, horizon = 24, 4, 60*sim.Millisecond
	}
	sc := harness.FleetScenarioN(seed, tenants, devices, horizon)
	sc.Repro = fmt.Sprintf("go run ./cmd/blessbench -fleet -seed %d", seed)

	start := time.Now()
	ref, err := harness.RunFleet(sc)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	serialWall := time.Since(start)
	if err := ref.Invariants.Err(); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}

	// Parallel copies: bit-identical digests at any worker count.
	copies := []int{0, 1, 2}
	if parallel == 0 {
		parallel = len(copies)
	}
	results, err := harness.ForEachParallel(parallel, copies, func(_, _ int) (*harness.FleetResult, error) {
		return harness.RunFleet(sc)
	})
	if err != nil {
		return fmt.Errorf("fleet parallel: %w", err)
	}
	for i, r := range results {
		if r.Digest != ref.Digest || r.Invariants.Digest != ref.Invariants.Digest {
			return fmt.Errorf("fleet: parallel copy %d digest %016x/%016x != serial %016x/%016x — nondeterminism",
				i, r.Digest, r.Invariants.Digest, ref.Digest, ref.Invariants.Digest)
		}
	}

	// Migration-order permutation: reverse the trigger schedule.
	perm := sc
	perm.Migrations = make([]harness.FleetMigration, len(sc.Migrations))
	for i, m := range sc.Migrations {
		perm.Migrations[len(sc.Migrations)-1-i] = m
	}
	pres, err := harness.RunFleet(perm)
	if err != nil {
		return fmt.Errorf("fleet permuted: %w", err)
	}
	if pres.Digest != ref.Digest || pres.Invariants.Digest != ref.Invariants.Digest {
		return fmt.Errorf("fleet: migration-order permutation moved the digest (%016x vs %016x) — apply order leaked",
			pres.Digest, ref.Digest)
	}

	// Report.
	st := ref.Stats
	fmt.Printf("fleet: %d tenants over %d devices (+%d autoscaled), horizon %v, wall %v\n",
		len(sc.Tenants), len(sc.Devices), st.ScaleUps, sc.Horizon, serialWall.Round(time.Millisecond))
	fmt.Printf("  routed %d  completed %d  failed %d  | migrations %d (completed %d, rejected %d)  rebalances %d  epochs %d\n",
		st.Routed, st.Completed, st.Failed, st.Migrations, st.MigrationsCompleted, st.MigrationsRejected, st.Rebalances, st.Epochs)
	byClass := map[int][]int{}
	for _, d := range ref.Devices {
		byClass[d.SMs] = append(byClass[d.SMs], d.Device)
	}
	classes := make([]int, 0, len(byClass))
	for sms := range byClass {
		classes = append(classes, sms)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(classes)))
	for _, sms := range classes {
		var q, u float64
		n := 0
		for _, id := range byClass[sms] {
			d := ref.Devices[id]
			q += d.QuotaSubscribed
			u += d.Utilization
			n++
		}
		fmt.Printf("  class %3d SMs x%-2d  mean subscription %.2f  mean utilization %.2f\n",
			sms, n, q/float64(n), u/float64(n))
	}
	var slow harness.FleetTenantOutcome
	completed := 0
	for _, tn := range ref.Tenants {
		completed += tn.Completed
		if tn.MeanLat > slow.MeanLat {
			slow = tn
		}
	}
	fmt.Printf("  per-tenant completions %.1f mean; slowest %s (%s, q=%.2f): mean %.1fms over %d requests\n",
		float64(completed)/float64(len(ref.Tenants)), slow.Name, slow.App, slow.Quota,
		float64(slow.MeanLat)/float64(sim.Millisecond), slow.Completed)
	fmt.Printf("  digests: completion %016x  checker %016x — identical serial/parallel(x%d)/permuted ✓\n",
		ref.Digest, ref.Invariants.Digest, len(copies))
	fmt.Printf("  invariants: %d events folded, %d routed, %d completed, %d rerouted, 0 violations ✓\n",
		ref.Invariants.Events, ref.Invariants.Routed, ref.Invariants.Completed, ref.Invariants.Rerouted)
	return nil
}
