package harness

import (
	"math/rand"
	"testing"

	"bless/internal/fleet"
	"bless/internal/sim"
)

// smokeFleetScenario is the scaled-down canonical scenario used across the
// fleet tests: 24 tenants on a 4-device heterogeneous pool, short horizon.
func smokeFleetScenario(seed int64) FleetScenario {
	return FleetScenarioN(seed, 24, 4, 60*sim.Millisecond)
}

func TestRunFleetSmoke(t *testing.T) {
	res, err := RunFleet(smokeFleetScenario(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Invariants == nil {
		t.Fatal("no invariant report")
	}
	if err := res.Invariants.Err(); err != nil {
		t.Fatalf("fleet invariants: %v", err)
	}
	if res.Stats.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if res.Stats.Migrations == 0 {
		t.Fatal("no migrations happened (scenario schedules explicit ones)")
	}
	for _, tn := range res.Tenants {
		if tn.Evicted {
			t.Fatalf("tenant %s evicted in a crash-free run", tn.Name)
		}
		if tn.Completed == 0 {
			t.Errorf("tenant %s completed nothing", tn.Name)
		}
	}
	t.Logf("completed=%d migrations=%d (completed %d, rejected %d) scaleups=%d rebalances=%d digest=%016x",
		res.Stats.Completed, res.Stats.Migrations, res.Stats.MigrationsCompleted,
		res.Stats.MigrationsRejected, res.Stats.ScaleUps, res.Stats.Rebalances, res.Digest)
}

// TestFleetScenarioExercisesControlPlane pins that the canonical scenario
// actually walks the paths it claims to: live migration completes and the
// autoscaler grows the pool from its near-watermark start.
func TestFleetScenarioExercisesControlPlane(t *testing.T) {
	res, err := RunFleet(smokeFleetScenario(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MigrationsCompleted == 0 {
		t.Error("no migration ran to drain completion")
	}
	if res.Stats.ScaleUps == 0 {
		t.Error("autoscaler never scaled up despite near-watermark subscription")
	}
	if len(res.Devices) == len(smokeFleetScenario(7).Devices) {
		t.Error("device pool did not grow")
	}
}

// TestFleetDeterminismSerial pins run-to-run determinism: same scenario,
// same digests (completion and checker event digest).
func TestFleetDeterminismSerial(t *testing.T) {
	a, err := RunFleet(smokeFleetScenario(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(smokeFleetScenario(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("completion digest differs across identical runs: %016x vs %016x", a.Digest, b.Digest)
	}
	if a.Invariants.Digest != b.Invariants.Digest {
		t.Fatalf("checker digest differs across identical runs: %016x vs %016x", a.Invariants.Digest, b.Invariants.Digest)
	}
}

// TestFleetDeterminismParallel pins the serial-vs-parallel identity the
// ISSUE requires: N copies of the scenario run under the parallel executor
// must all produce the serial run's digest.
func TestFleetDeterminismParallel(t *testing.T) {
	serial, err := RunFleet(smokeFleetScenario(5))
	if err != nil {
		t.Fatal(err)
	}
	inputs := []int{0, 1, 2, 3}
	results, err := ForEachParallel(4, inputs, func(_, _ int) (*FleetResult, error) {
		return RunFleet(smokeFleetScenario(5))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Digest != serial.Digest {
			t.Fatalf("parallel copy %d digest %016x != serial %016x", i, r.Digest, serial.Digest)
		}
		if r.Invariants.Digest != serial.Invariants.Digest {
			t.Fatalf("parallel copy %d checker digest %016x != serial %016x", i, r.Invariants.Digest, serial.Invariants.Digest)
		}
	}
}

// TestFleetMigrationOrderMetamorphic is the migration-determinism suite:
// permuting the order same-instant migration triggers are scheduled in must
// not change the fleet completion digest (triggers apply in canonical
// order, not arrival order).
func TestFleetMigrationOrderMetamorphic(t *testing.T) {
	base := smokeFleetScenario(11)
	if len(base.Migrations) < 3 {
		t.Fatalf("scenario needs >=3 same-instant migrations, got %d", len(base.Migrations))
	}
	ref, err := RunFleet(base)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 4; trial++ {
		perm := base
		perm.Migrations = append([]FleetMigration(nil), base.Migrations...)
		rng.Shuffle(len(perm.Migrations), func(i, j int) {
			perm.Migrations[i], perm.Migrations[j] = perm.Migrations[j], perm.Migrations[i]
		})
		got, err := RunFleet(perm)
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest != ref.Digest {
			t.Fatalf("trial %d: permuted migration order changed the digest: %016x vs %016x",
				trial, got.Digest, ref.Digest)
		}
		if got.Invariants.Digest != ref.Invariants.Digest {
			t.Fatalf("trial %d: permuted migration order changed the checker digest", trial)
		}
	}
}

// TestFleetDeviceCrashDelivery is the chaos coverage: a device crash mid-run
// (timed to land while migration drains are in flight) neither loses nor
// duplicates requests — the delivery half of the fleet invariant class.
func TestFleetDeviceCrashDelivery(t *testing.T) {
	base := smokeFleetScenario(13)
	// Crash the device right at the migration instant: sources are draining,
	// targets freshly admitted — the worst instant to lose a device.
	sc := base.WithDeviceCrash(1, base.Migrations[0].At)
	sc.Repro = "fleet crash test seed 13"
	res, err := RunFleet(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DeviceCrashes != 1 {
		t.Fatalf("want 1 device crash, got %d", res.Stats.DeviceCrashes)
	}
	if err := res.Invariants.Err(); err != nil {
		t.Fatalf("delivery invariant violated: %v", err)
	}
	if res.Invariants.Lost != 0 {
		t.Fatalf("%d requests lost across the crash", res.Invariants.Lost)
	}
	if res.Stats.Resubmitted == 0 {
		t.Error("crash stranded no requests? expected re-submissions")
	}
	// Determinism holds under chaos too.
	res2, err := RunFleet(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Digest != res.Digest {
		t.Fatalf("crash run digest not reproducible: %016x vs %016x", res2.Digest, res.Digest)
	}
}

// TestFleetPolicies pins that each routing policy produces a valid,
// deterministic placement.
func TestFleetPolicies(t *testing.T) {
	for _, pol := range []fleet.Policy{fleet.PolicyLeastLoaded, fleet.PolicyQuotaHeadroom, fleet.PolicySLO} {
		sc := smokeFleetScenario(17)
		sc.Policy = pol
		sc.Migrations = nil
		res, err := RunFleet(sc)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if err := res.Invariants.Err(); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		res2, err := RunFleet(sc)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.Digest != res2.Digest {
			t.Fatalf("%s: digest not reproducible", pol)
		}
	}
}

// BenchmarkFleetSmoke is the fleet control plane's wall-clock envelope: one
// smoke-scale scenario (24 tenants, 4 devices, migrations + rebalancing +
// autoscaling, invariants attached) per iteration. Gated in BENCH_sim.json.
func BenchmarkFleetSmoke(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunFleet(smokeFleetScenario(7))
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Invariants.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// fleetBenchScenario is the 32-GPU benchmark scenario: BenchmarkFleetSmoke
// scale in device count, trimmed in horizon so one iteration stays tractable.
func fleetBenchScenario(seed int64) FleetScenario {
	return FleetScenarioN(seed, 96, 32, 80*sim.Millisecond)
}

// BenchmarkFleet32 is the 32-GPU fleet's wall-clock envelope, gated in
// BENCH_sim.json. Its digest is pinned in TestFleetPinnedDigests; here it
// only has to stay stable across iterations.
func BenchmarkFleet32(b *testing.B) {
	b.ReportAllocs()
	sc := fleetBenchScenario(7)
	var digest uint64
	for i := 0; i < b.N; i++ {
		res, err := RunFleet(sc)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Invariants.Err(); err != nil {
			b.Fatal(err)
		}
		if digest == 0 {
			digest = res.Digest
		} else if res.Digest != digest {
			b.Fatalf("digest drifted across iterations: %016x vs %016x", res.Digest, digest)
		}
	}
}
