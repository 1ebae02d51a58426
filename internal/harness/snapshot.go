package harness

import (
	"bytes"
	"fmt"

	"bless/internal/chaos"
	"bless/internal/fleet"
	"bless/internal/sim"
	"bless/internal/snapshot"
)

// Snapshot export/import: the harness front-end to the snapshot wire format.
//
// ExportFleet runs a scenario to a virtual-time barrier and serializes the
// fleet's complete observable logical state together with the generating
// scenario. ImportFleet rebuilds the run in a fresh process by replaying the
// embedded scenario to the same barrier — pending engine events are closures
// and cannot cross a process boundary, so replay is how they are
// reconstructed — then *proves* the reconstruction by re-exporting at the
// barrier and comparing the canonical state bytes against the snapshot's
// state section. Any serialization drift, schema skew, or cross-process
// nondeterminism fails the import before the run continues; after the proof
// the run continues to completion and the caller compares final digests
// against an uninterrupted reference (the test-sim-import-export /
// test-sim-after-import discipline).

// ExportFleet drives the scenario to the virtual-time barrier at, cuts a
// snapshot there, and returns its canonical encoding. The barrier is forced
// at exactly at (digest-neutral — it only splits windows); a scenario that
// drains before at exports its final quiescent state.
//
// Function-valued scenario fields cannot be serialized: a non-nil
// Runtime.TraceSquad or Runtime.Injector is an error.
func ExportFleet(sc FleetScenario, at sim.Time) ([]byte, error) {
	if at < 0 {
		return nil, fmt.Errorf("harness: snapshot barrier %v is negative", at)
	}
	wire, err := scenarioToWire(sc)
	if err != nil {
		return nil, err
	}
	f, _, horizon, err := buildFleet(sc)
	if err != nil {
		return nil, err
	}
	if err := f.Begin(horizon); err != nil {
		return nil, err
	}
	if _, err := f.RunTo(at); err != nil {
		return nil, err
	}
	st, err := f.ExportState()
	if err != nil {
		return nil, err
	}
	snap := &snapshot.Snapshot{
		Seed:      sc.Seed,
		Reserved:  1,
		BarrierAt: at,
		Horizon:   horizon,
		Scenario:  wire,
		State:     *st,
	}
	snap.Scenario.Horizon = horizon
	return snapshot.Encode(snap), nil
}

// ImportFleet restores a snapshot: decode, replay the embedded scenario to
// the snapshot barrier, prove the replayed state matches the snapshot's
// state section byte-for-byte, then continue the run to completion and
// report.
func ImportFleet(data []byte) (*FleetResult, error) {
	snap, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	f, checker, horizon, err := buildFleet(scenarioFromWire(snap.Scenario))
	if err != nil {
		return nil, fmt.Errorf("harness: rebuilding snapshot scenario: %w", err)
	}
	if err := f.Begin(horizon); err != nil {
		return nil, err
	}
	if _, err := f.RunTo(snap.BarrierAt); err != nil {
		return nil, err
	}
	st, err := f.ExportState()
	if err != nil {
		return nil, err
	}
	if got, want := snapshot.EncodeState(st), snapshot.EncodeState(&snap.State); !bytes.Equal(got, want) {
		return nil, fmt.Errorf(
			"harness: replayed state at %v diverges from snapshot (state digest %016x != %016x) — serialization drift or nondeterminism",
			snap.BarrierAt, snapshot.StateDigest(st), snapshot.StateDigest(&snap.State))
	}
	if _, err := f.RunTo(-1); err != nil {
		return nil, err
	}
	return fleetReport(f, checker), nil
}

// ImportVerdict is a fully verified restore: the imported run, the
// uninterrupted reference replayed from the snapshot's embedded scenario,
// and the decoded snapshot itself. VerifyImport only returns one when every
// digest agrees.
type ImportVerdict struct {
	Snapshot  *snapshot.Snapshot
	Imported  *FleetResult
	Reference *FleetResult
}

// VerifyImport is the whole restore proof in one call — what the CI
// snapshot-replay stage and `blessbench -snapshot-import` run: import the
// snapshot (which already proves the replayed barrier state byte-identical),
// continue to completion, replay the embedded scenario uninterrupted, and
// require completion digest, checker digest and stats to agree.
func VerifyImport(data []byte) (*ImportVerdict, error) {
	snap, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	imported, err := ImportFleet(data)
	if err != nil {
		return nil, err
	}
	ref, err := RunFleet(scenarioFromWire(snap.Scenario))
	if err != nil {
		return nil, fmt.Errorf("harness: uninterrupted reference: %w", err)
	}
	if imported.Digest != ref.Digest {
		return nil, fmt.Errorf("harness: restored run's completion digest %016x != uninterrupted %016x",
			imported.Digest, ref.Digest)
	}
	if imported.Invariants != nil && ref.Invariants != nil && imported.Invariants.Digest != ref.Invariants.Digest {
		return nil, fmt.Errorf("harness: restored run's checker digest %016x != uninterrupted %016x",
			imported.Invariants.Digest, ref.Invariants.Digest)
	}
	if imported.Stats != ref.Stats {
		return nil, fmt.Errorf("harness: restored run's stats diverge from uninterrupted reference:\n got %+v\nwant %+v",
			imported.Stats, ref.Stats)
	}
	return &ImportVerdict{Snapshot: snap, Imported: imported, Reference: ref}, nil
}

// scenarioToWire converts a declarative fleet scenario to its
// process-independent wire form.
func scenarioToWire(sc FleetScenario) (snapshot.Scenario, error) {
	var w snapshot.Scenario
	if sc.Runtime.TraceSquad != nil {
		return w, fmt.Errorf("harness: scenario with Runtime.TraceSquad cannot be snapshotted (functions do not serialize)")
	}
	if sc.Runtime.Injector != nil {
		return w, fmt.Errorf("harness: scenario with Runtime.Injector cannot be snapshotted (injectors do not serialize)")
	}
	w.Seed = sc.Seed
	w.Policy = string(sc.Policy)
	w.Horizon = sc.Horizon
	w.ExchangeLatency = sc.ExchangeLatency
	w.Repro = sc.Repro
	w.Invariants = sc.Invariants
	for _, d := range sc.Devices {
		w.Devices = append(w.Devices, deviceToWire(d))
	}
	for _, t := range sc.Tenants {
		w.Tenants = append(w.Tenants, snapshot.TenantSpec{
			Name: t.Name, App: t.App, Quota: t.Quota,
			SLOTarget: t.SLOTarget, Think: t.Think, Requests: t.Requests,
		})
	}
	for _, m := range sc.Migrations {
		w.Migrations = append(w.Migrations, snapshot.Migration{At: m.At, Tenant: m.Tenant, Target: m.Target})
	}
	for _, c := range sc.DeviceCrashes {
		w.Crashes = append(w.Crashes, snapshot.Crash{At: c.At, Device: c.Device})
	}
	if sc.Rebalance != nil {
		w.Rebalance = &snapshot.Rebalance{
			Interval:     sc.Rebalance.Interval,
			Threshold:    sc.Rebalance.Threshold,
			SustainTicks: sc.Rebalance.SustainTicks,
			MaxMoves:     sc.Rebalance.MaxMoves,
		}
	}
	if sc.Autoscale != nil {
		w.Autoscale = &snapshot.Autoscale{
			Template:      deviceToWire(sc.Autoscale.Template),
			Min:           sc.Autoscale.Min,
			Max:           sc.Autoscale.Max,
			HighWatermark: sc.Autoscale.HighWatermark,
			LowWatermark:  sc.Autoscale.LowWatermark,
		}
	}
	if sc.Faults != nil {
		w.Faults = &snapshot.FaultPlan{
			Seed:               sc.Faults.Seed,
			KernelFaultRate:    sc.Faults.KernelFaultRate,
			MaxFaultsPerKernel: sc.Faults.MaxFaultsPerKernel,
			CtxFaultRate:       sc.Faults.CtxFaultRate,
		}
	}
	o := sc.Runtime
	w.Runtime = snapshot.RuntimeOptions{
		MaxSquadKernels:      o.MaxSquadKernels,
		SplitRatio:           o.SplitRatio,
		Partitions:           o.Partitions,
		SchedPerKernel:       o.SchedPerKernel,
		DisableFairSelection: o.DisableFairSelection,
		DisableDeterminer:    o.DisableDeterminer,
		DisableSemiSP:        o.DisableSemiSP,
		QuotaGuard:           o.QuotaGuard,
		NoAdaptiveSizing:     o.NoAdaptiveSizing,
		NoFlush:              o.NoFlush,
		RetryBackoff:         o.RetryBackoff,
		RetryBackoffCap:      o.RetryBackoffCap,
		MaxRetries:           o.MaxRetries,
		RequestDeadline:      o.RequestDeadline,
	}
	return w, nil
}

// scenarioFromWire rebuilds the declarative scenario a snapshot embeds.
func scenarioFromWire(w snapshot.Scenario) FleetScenario {
	sc := FleetScenario{
		Seed:            w.Seed,
		Policy:          fleet.Policy(w.Policy),
		Horizon:         w.Horizon,
		ExchangeLatency: w.ExchangeLatency,
		Repro:           w.Repro,
		Invariants:      w.Invariants,
	}
	for _, d := range w.Devices {
		sc.Devices = append(sc.Devices, deviceFromWire(d))
	}
	for _, t := range w.Tenants {
		sc.Tenants = append(sc.Tenants, FleetTenant{
			Name: t.Name, App: t.App, Quota: t.Quota,
			SLOTarget: t.SLOTarget, Think: t.Think, Requests: t.Requests,
		})
	}
	for _, m := range w.Migrations {
		sc.Migrations = append(sc.Migrations, FleetMigration{At: m.At, Tenant: m.Tenant, Target: m.Target})
	}
	for _, c := range w.Crashes {
		sc.DeviceCrashes = append(sc.DeviceCrashes, chaos.DeviceEvent{At: c.At, Device: c.Device})
	}
	if w.Rebalance != nil {
		sc.Rebalance = &fleet.RebalanceConfig{
			Interval:     w.Rebalance.Interval,
			Threshold:    w.Rebalance.Threshold,
			SustainTicks: w.Rebalance.SustainTicks,
			MaxMoves:     w.Rebalance.MaxMoves,
		}
	}
	if w.Autoscale != nil {
		sc.Autoscale = &fleet.AutoscaleConfig{
			Template:      deviceFromWire(w.Autoscale.Template),
			Min:           w.Autoscale.Min,
			Max:           w.Autoscale.Max,
			HighWatermark: w.Autoscale.HighWatermark,
			LowWatermark:  w.Autoscale.LowWatermark,
		}
	}
	if w.Faults != nil {
		sc.Faults = &FleetFaultPlan{
			Seed:               w.Faults.Seed,
			KernelFaultRate:    w.Faults.KernelFaultRate,
			MaxFaultsPerKernel: w.Faults.MaxFaultsPerKernel,
			CtxFaultRate:       w.Faults.CtxFaultRate,
		}
	}
	o := w.Runtime
	sc.Runtime.MaxSquadKernels = o.MaxSquadKernels
	sc.Runtime.SplitRatio = o.SplitRatio
	sc.Runtime.Partitions = o.Partitions
	sc.Runtime.SchedPerKernel = o.SchedPerKernel
	sc.Runtime.DisableFairSelection = o.DisableFairSelection
	sc.Runtime.DisableDeterminer = o.DisableDeterminer
	sc.Runtime.DisableSemiSP = o.DisableSemiSP
	sc.Runtime.QuotaGuard = o.QuotaGuard
	sc.Runtime.NoAdaptiveSizing = o.NoAdaptiveSizing
	sc.Runtime.NoFlush = o.NoFlush
	sc.Runtime.RetryBackoff = o.RetryBackoff
	sc.Runtime.RetryBackoffCap = o.RetryBackoffCap
	sc.Runtime.MaxRetries = o.MaxRetries
	sc.Runtime.RequestDeadline = o.RequestDeadline
	return sc
}

func deviceToWire(d fleet.DeviceSpec) snapshot.DeviceSpec {
	c := d.Config
	return snapshot.DeviceSpec{
		Name:             d.Name,
		SMs:              c.SMs,
		MemoryBytes:      c.MemoryBytes,
		PCIeBytesPerNS:   c.PCIeBytesPerNS,
		KernelLaunch:     c.KernelLaunch,
		ContextSwitch:    c.ContextSwitch,
		SquadSync:        c.SquadSync,
		ContextMemBytes:  c.ContextMemBytes,
		SlowdownCap:      c.SlowdownCap,
		BWSatOccupancy:   c.BWSatOccupancy,
		InterferenceBeta: c.InterferenceBeta,
	}
}

func deviceFromWire(d snapshot.DeviceSpec) fleet.DeviceSpec {
	return fleet.DeviceSpec{
		Name: d.Name,
		Config: sim.Config{
			SMs:              d.SMs,
			MemoryBytes:      d.MemoryBytes,
			PCIeBytesPerNS:   d.PCIeBytesPerNS,
			KernelLaunch:     d.KernelLaunch,
			ContextSwitch:    d.ContextSwitch,
			SquadSync:        d.SquadSync,
			ContextMemBytes:  d.ContextMemBytes,
			SlowdownCap:      d.SlowdownCap,
			BWSatOccupancy:   d.BWSatOccupancy,
			InterferenceBeta: d.InterferenceBeta,
		},
	}
}
