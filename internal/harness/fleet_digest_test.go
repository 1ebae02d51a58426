package harness

import (
	"testing"

	"bless/internal/sim"
)

// Pinned fleet digests. The completion digest folds every tenant's
// completion order; the checker digest folds every routed, completed,
// rerouted and released event in the order the invariant checker saw it.
// Together they fix the fleet's event order: routing, the ε-delayed drain
// exchange, crash recovery, rebalancing and autoscaling. Any change that
// reorders one event moves a digest, so a refactor of the execution path
// must reproduce these values exactly.

// withMigrationCrash folds in a crash of device 1 at the instant of the
// scenario's first explicit migration: sources are draining, targets are
// freshly admitted and drain records are in flight.
func withMigrationCrash(sc FleetScenario) FleetScenario {
	return sc.WithDeviceCrash(1, sc.Migrations[0].At)
}

var pinnedFleetDigests = []struct {
	name            string
	sc              func() FleetScenario
	digest, checker uint64
}{
	// blessbench -fleet -smoke (default seed 7).
	{"smoke/seed7", func() FleetScenario { return smokeFleetScenario(7) },
		0x419ee3b813f3f076, 0x249e7386fded5972},
	{"smoke/seed1", func() FleetScenario { return smokeFleetScenario(1) },
		0x09022b24658d10b4, 0xe1a1ce18406f584d},
	{"smoke/seed11", func() FleetScenario { return smokeFleetScenario(11) },
		0x419ee3b813f3f076, 0x249e7386fded5972},
	// The smoke scenario with a device crash mid-migration.
	{"smoke-crash/seed7", func() FleetScenario { return withMigrationCrash(smokeFleetScenario(7)) },
		0x73518d3d1c2dd630, 0xd6d779802c4cab25},
	// Rebalancing pressure high enough for control-plane migrations.
	{"wide/seed3", func() FleetScenario { return FleetScenarioN(3, 32, 6, 80*sim.Millisecond) },
		0x2cfc8cdf38f3f1bf, 0xcbb1d77d2cc1394a},
	{"wide/seed29", func() FleetScenario { return FleetScenarioN(29, 32, 6, 80*sim.Millisecond) },
		0x55f208ac515adbd5, 0xdf861e2bf0ae1a7f},
	// The 32-GPU benchmark scenario (BenchmarkFleet32).
	{"bench32/seed7", func() FleetScenario { return fleetBenchScenario(7) },
		0x1e0c7925d7a4e3e0, 0x81facbd476b8b586},
	// blessbench -fleet at full scale, 200 tenants on 32 GPUs, with a crash
	// mid-migration.
	{"full-crash/seed7", func() FleetScenario {
		return withMigrationCrash(FleetScenarioN(7, 200, 32, 250*sim.Millisecond))
	}, 0x51c9e8e4ccaaa0a4, 0x61235fc25401cb0d},
}

// TestFleetPinnedDigests runs each pinned scenario and checks both digests
// and the fleet invariants.
func TestFleetPinnedDigests(t *testing.T) {
	for _, p := range pinnedFleetDigests {
		t.Run(p.name, func(t *testing.T) {
			res, err := RunFleet(p.sc())
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Invariants.Err(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			if res.Digest != p.digest || res.Invariants.Digest != p.checker {
				t.Fatalf("digests %016x/%016x, want %016x/%016x",
					res.Digest, res.Invariants.Digest, p.digest, p.checker)
			}
		})
	}
}

// TestFleetChaosCrashAtMigration crashes a device at the migration instant
// and checks the recovery: stranded requests are resubmitted, every request
// is delivered exactly once, none is lost, and the digests are pinned.
func TestFleetChaosCrashAtMigration(t *testing.T) {
	sc := withMigrationCrash(smokeFleetScenario(13))
	sc.Repro = "fleet chaos seed 13"
	res, err := RunFleet(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Invariants.Err(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if res.Stats.DeviceCrashes != 1 {
		t.Fatalf("want 1 crash, got %d", res.Stats.DeviceCrashes)
	}
	if res.Stats.Resubmitted == 0 {
		t.Fatal("crash stranded no requests? expected re-submissions")
	}
	if res.Invariants.Lost != 0 {
		t.Fatalf("lost %d requests across the crash", res.Invariants.Lost)
	}
	const wantDigest, wantChecker = 0x9537f5f2ade73b20, 0xdea3b652de080389
	if res.Digest != wantDigest || res.Invariants.Digest != wantChecker {
		t.Fatalf("digests %016x/%016x, want %016x/%016x",
			res.Digest, res.Invariants.Digest, uint64(wantDigest), uint64(wantChecker))
	}
}
