package harness

import (
	"bytes"
	"math"
	"testing"

	"bless/internal/chaos"
	"bless/internal/core"
	"bless/internal/sim"
	"bless/internal/snapshot"
)

// Snapshot/restore suite — the wasmd test-sim-import-export /
// test-sim-after-import discipline. The headline guarantee: for any
// seed/scenario, run-to-T → export → import into a fresh fleet → continue
// produces completion, invariant and checker digests bit-identical to the
// uninterrupted run, including snapshots cut mid-migration, mid-fault-retry,
// and around a device crash.

// snapshotPoints picks the barrier instants the matrix cuts at: early
// (closed loops ramping), the migration trigger instant itself, mid-drain
// (sources draining, exchange records possibly in flight), and late (near
// the horizon under rebalance/autoscale churn).
func snapshotPoints(sc FleetScenario) map[string]sim.Time {
	mig := sc.Migrations[0].At
	return map[string]sim.Time{
		"early":      5 * sim.Millisecond,
		"at-trigger": mig,
		"mid-drain":  mig + 50*sim.Microsecond,
		"late":       sc.Horizon - 7*sim.Millisecond,
	}
}

func mustExport(t *testing.T, sc FleetScenario, at sim.Time) []byte {
	t.Helper()
	data, err := ExportFleet(sc, at)
	if err != nil {
		t.Fatalf("export at %v: %v", at, err)
	}
	return data
}

func mustImport(t *testing.T, data []byte) *FleetResult {
	t.Helper()
	res, err := ImportFleet(data)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	return res
}

// TestImportExport proves the export side: a snapshot cut at a barrier is
// decodable, self-consistent, and exports to the same bytes on a second run.
// The mid-drain point must actually catch a migration in flight for the
// matrix to mean anything.
func TestImportExport(t *testing.T) {
	sc := smokeFleetScenario(7)
	for name, at := range snapshotPoints(sc) {
		data := mustExport(t, sc, at)
		snap, err := snapshot.Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if snap.BarrierAt != at || snap.State.At != at {
			t.Fatalf("%s: barrier %v / state %v, want %v", name, snap.BarrierAt, snap.State.At, at)
		}
		if len(snap.State.Tenants) != len(sc.Tenants) {
			t.Fatalf("%s: %d tenants in state, want %d", name, len(snap.State.Tenants), len(sc.Tenants))
		}
		if snap.State.Checker == nil {
			t.Fatalf("%s: checker state missing", name)
		}
		if again := mustExport(t, sc, at); !bytes.Equal(again, data) {
			t.Fatalf("%s: a second export of the same scenario differs", name)
		}
		if name == "mid-drain" {
			draining := 0
			for _, ts := range snap.State.Tenants {
				draining += len(ts.Drains)
			}
			if draining == 0 {
				t.Fatalf("mid-drain snapshot caught no draining residency — the point is mistimed")
			}
		}
	}
}

// TestSimulationAfterImport proves the restore side on the full matrix:
// multi-seed × snapshot point, always converging to the uninterrupted run's
// completion digest, checker digest and stats, with clean invariants.
func TestSimulationAfterImport(t *testing.T) {
	seeds := []int64{7}
	if !testing.Short() {
		seeds = append(seeds, 11, 23)
	}
	for _, seed := range seeds {
		sc := smokeFleetScenario(seed)
		ref, err := RunFleet(sc)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if err := ref.Invariants.Err(); err != nil {
			t.Fatalf("seed %d: reference invariants: %v", seed, err)
		}
		for name, at := range snapshotPoints(sc) {
			got := mustImport(t, mustExport(t, sc, at))
			if err := got.Invariants.Err(); err != nil {
				t.Fatalf("seed %d %s: invariants: %v", seed, name, err)
			}
			if got.Digest != ref.Digest {
				t.Fatalf("seed %d %s: completion digest %016x != uninterrupted %016x",
					seed, name, got.Digest, ref.Digest)
			}
			if got.Invariants.Digest != ref.Invariants.Digest {
				t.Fatalf("seed %d %s: checker digest %016x != uninterrupted %016x",
					seed, name, got.Invariants.Digest, ref.Invariants.Digest)
			}
			if got.Stats != ref.Stats {
				t.Fatalf("seed %d %s: stats diverge:\n got %+v\nwant %+v",
					seed, name, got.Stats, ref.Stats)
			}
		}
	}
}

// TestSnapshotMidFaultRetry cuts the barrier while kernel-fault retries are
// in flight: the declarative fleet fault plan replays exactly, so a snapshot
// with nonzero retry counters and pending backoff timers must restore and
// converge like any other.
func TestSnapshotMidFaultRetry(t *testing.T) {
	sc := smokeFleetScenario(17)
	sc.Faults = &FleetFaultPlan{Seed: 99, KernelFaultRate: 0.03}
	sc.Repro = "snapshot mid-fault-retry seed 17"
	ref, err := RunFleet(sc)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if err := ref.Invariants.Err(); err != nil {
		t.Fatalf("reference invariants: %v", err)
	}
	at := 30 * sim.Millisecond
	data := mustExport(t, sc, at)
	snap, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	var faults, retries int64
	for _, d := range snap.State.Devices {
		if d.Runtime != nil {
			faults += d.Runtime.Faults.KernelFaults
			retries += d.Runtime.Faults.Retries
		}
	}
	if faults == 0 || retries == 0 {
		t.Fatalf("barrier at %v caught no fault/retry activity (faults=%d retries=%d) — raise the rate or move the point", at, faults, retries)
	}
	got := mustImport(t, data)
	if err := got.Invariants.Err(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if got.Digest != ref.Digest || got.Invariants.Digest != ref.Invariants.Digest {
		t.Fatal("digests diverge after mid-fault-retry restore")
	}
}

// TestSnapshotCrashRecovery is the crash-recovery story: a device crashes at
// the migration instant (sources draining, exchange records in flight).
// Restoring from the last pre-crash snapshot replays the crash and converges
// to the reference; restoring from a snapshot cut just *after* the crash —
// dead device in the pool, resubmitted requests outstanding — converges too.
func TestSnapshotCrashRecovery(t *testing.T) {
	base := smokeFleetScenario(13)
	sc := base.WithDeviceCrash(1, base.Migrations[0].At)
	sc.Repro = "snapshot crash recovery seed 13"
	ref, err := RunFleet(sc)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if ref.Stats.DeviceCrashes != 1 || ref.Stats.Resubmitted == 0 {
		t.Fatalf("crash scenario mistimed: %+v", ref.Stats)
	}
	points := map[string]sim.Time{
		"pre-crash":  sc.Migrations[0].At - sim.Millisecond,
		"post-crash": sc.Migrations[0].At + 50*sim.Microsecond,
	}
	for name, at := range points {
		data := mustExport(t, sc, at)
		snap, err := snapshot.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		dead := 0
		for _, d := range snap.State.Devices {
			if d.Dead {
				dead++
			}
		}
		if name == "pre-crash" && dead != 0 {
			t.Fatalf("pre-crash snapshot already has %d dead device(s)", dead)
		}
		if name == "post-crash" && dead != 1 {
			t.Fatalf("post-crash snapshot has %d dead devices, want 1", dead)
		}
		got := mustImport(t, data)
		if err := got.Invariants.Err(); err != nil {
			t.Fatalf("%s: invariants: %v", name, err)
		}
		if got.Invariants.Lost != 0 {
			t.Fatalf("%s: lost %d requests across restore+crash", name, got.Invariants.Lost)
		}
		if got.Digest != ref.Digest || got.Invariants.Digest != ref.Invariants.Digest {
			t.Fatalf("%s: restored run diverges from reference", name)
		}
		if got.Stats != ref.Stats {
			t.Fatalf("%s: stats diverge:\n got %+v\nwant %+v", name, got.Stats, ref.Stats)
		}
	}
}

// TestSnapshotQuiescent cuts the barrier past the drain: the snapshot holds
// the final quiescent state and import's continuation is a no-op, still
// reporting the reference digests.
func TestSnapshotQuiescent(t *testing.T) {
	sc := smokeFleetScenario(7)
	ref, err := RunFleet(sc)
	if err != nil {
		t.Fatal(err)
	}
	data := mustExport(t, sc, sc.Horizon+sim.Second)
	got := mustImport(t, data)
	if got.Digest != ref.Digest || got.Invariants.Digest != ref.Invariants.Digest {
		t.Fatal("quiescent snapshot does not restore to the reference digests")
	}
}

// TestVerifyImport covers the one-call proof the CLI and the CI
// snapshot-replay stage use, including its rejection of corrupted input.
func TestVerifyImport(t *testing.T) {
	sc := smokeFleetScenario(7)
	data := mustExport(t, sc, 10*sim.Millisecond)
	v, err := VerifyImport(data)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if v.Snapshot.BarrierAt != 10*sim.Millisecond {
		t.Fatalf("verdict barrier %v, want 10ms", v.Snapshot.BarrierAt)
	}
	if v.Imported.Digest != v.Reference.Digest || v.Imported.Stats != v.Reference.Stats {
		t.Fatal("verdict returned without digest/stat agreement")
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/3] ^= 0x10
	if _, err := VerifyImport(bad); err == nil {
		t.Fatal("corrupted snapshot verified without error")
	}
}

// TestImportIgnoresReservedHeader re-seals a smoke snapshot with the
// reserved header slot (once the exporting run's shard count) set to
// math.MaxInt64: the import must ignore the value, not size anything by it.
func TestImportIgnoresReservedHeader(t *testing.T) {
	snap, err := snapshot.Decode(mustExport(t, smokeFleetScenario(7), 20*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reserved != 1 {
		t.Fatalf("export wrote reserved slot %d, want 1", snap.Reserved)
	}
	snap.Reserved = math.MaxInt64
	v, err := VerifyImport(snapshot.Encode(snap))
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	// The reference digests of the smoke scenario (TestFleetPinnedDigests).
	if v.Imported.Digest != 0x419ee3b813f3f076 || v.Imported.Invariants.Digest != 0x249e7386fded5972 {
		t.Fatalf("restored digests %016x/%016x, want 419ee3b813f3f076/249e7386fded5972",
			v.Imported.Digest, v.Imported.Invariants.Digest)
	}
}

// BenchmarkSnapshotExport is the export hot path under the bench envelope:
// the smoke fleet scenario driven to the mid-horizon barrier and serialized.
func BenchmarkSnapshotExport(b *testing.B) {
	sc := smokeFleetScenario(7)
	at := sc.Horizon / 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := ExportFleet(sc, at)
		if err != nil {
			b.Fatal(err)
		}
		if len(data) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// TestSnapshotRejectsUnserializable pins the export-side refusals: function
// and interface-valued scenario fields cannot cross a process boundary.
func TestSnapshotRejectsUnserializable(t *testing.T) {
	sc := smokeFleetScenario(7)
	sc.Runtime.TraceSquad = func(at sim.Time, squad *core.Squad, cfg core.ExecConfig) {}
	if _, err := ExportFleet(sc, sim.Millisecond); err == nil {
		t.Fatal("scenario with TraceSquad exported without error")
	}
	sc = smokeFleetScenario(7)
	sc.Runtime.Injector = chaos.NewInjector(chaos.Plan{Seed: 1, KernelFaultRate: 0.1})
	if _, err := ExportFleet(sc, sim.Millisecond); err == nil {
		t.Fatal("scenario with a raw Injector exported without error")
	}
	if _, err := ExportFleet(smokeFleetScenario(7), -sim.Millisecond); err == nil {
		t.Fatal("negative barrier exported without error")
	}
}
