package planner

import (
	"fmt"
	"net/http"
	"strconv"

	"bless/internal/harness"
	"bless/internal/sim"
	"bless/internal/snapshot"
)

// Snapshot/Restore RPCs: save/resume for fleet plans across a process
// boundary.
//
//   - Planner.Snapshot runs a fleet scenario to a virtual-time barrier and
//     returns the canonical snapshot encoding — the complete observable
//     logical state plus the generating scenario, cut mid-migration,
//     mid-fault-retry or wherever the barrier lands.
//   - Planner.Restore imports such a snapshot (from this daemon or any
//     other process): the embedded scenario is replayed to the barrier, the
//     replayed state proven byte-identical to the snapshot's state section,
//     and the run continued to completion under the fleet invariant
//     checker, reporting like FleetPlan.
//
// The most recent snapshot's raw bytes are served on
// GET /debug/bless/snapshot — download it, restart the daemon, and feed it
// back through Planner.Restore.

// SnapshotRequest cuts a fleet scenario at a virtual-time barrier.
type SnapshotRequest struct {
	// Plan is the scenario to run (same shape as Planner.FleetPlan).
	Plan FleetPlanRequest
	// AtMS is the barrier instant in virtual milliseconds (<= 0 cuts at
	// half the plan's horizon). A scenario that drains before the barrier
	// snapshots its final quiescent state.
	AtMS float64
}

// SnapshotReply is the cut snapshot and its summary.
type SnapshotReply struct {
	// Snapshot is the canonical encoding — self-describing, versioned,
	// digest-sealed; feed it to Planner.Restore in any process.
	Snapshot []byte
	// BarrierAtMS is the resolved barrier instant.
	BarrierAtMS float64
	// StateDigest fingerprints the canonical state section.
	StateDigest string
	// Devices/Tenants count the entities captured in the state.
	Devices int
	Tenants int
}

// RestoreRequest resumes a run from a snapshot.
type RestoreRequest struct {
	// Snapshot is a Planner.Snapshot (or blessbench -snapshot) encoding.
	Snapshot []byte
}

// RestoreReply is the completed run's outcome plus the restore provenance.
type RestoreReply struct {
	FleetPlanReply
	// BarrierAtMS is the snapshot's barrier — where the run resumed from.
	BarrierAtMS float64
	// StateDigest fingerprints the barrier state the replay was proven
	// against, byte for byte.
	StateDigest string
}

// Snapshot forwards to Planner.Snapshot.
func (s *PlanService) Snapshot(req SnapshotRequest, reply *SnapshotReply) error {
	return s.p.Snapshot(req, reply)
}

// Restore forwards to Planner.Restore.
func (s *PlanService) Restore(req RestoreRequest, reply *RestoreReply) error {
	return s.p.Restore(req, reply)
}

// Snapshot cuts the requested scenario at the barrier and returns the
// canonical encoding. The raw bytes also land on /debug/bless/snapshot.
func (p *Planner) Snapshot(req SnapshotRequest, reply *SnapshotReply) error {
	sc, err := fleetScenarioOf(req.Plan, "Planner.Snapshot")
	if err != nil {
		p.reg.Counter("plan_errors_total").Inc()
		return err
	}
	at := ms(req.AtMS)
	if at <= 0 {
		at = sc.Horizon / 2
	}
	data, err := harness.ExportFleet(sc, at)
	if err != nil {
		p.reg.Counter("plan_errors_total").Inc()
		return err
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		p.reg.Counter("plan_errors_total").Inc()
		return fmt.Errorf("planner: re-decoding fresh snapshot: %w", err)
	}
	reply.Snapshot = data
	reply.BarrierAtMS = float64(at) / float64(sim.Millisecond)
	reply.StateDigest = fmt.Sprintf("%016x", snapshot.StateDigest(&snap.State))
	reply.Devices = len(snap.State.Devices)
	reply.Tenants = len(snap.State.Tenants)

	p.mu.Lock()
	p.lastSnapshot = data
	p.mu.Unlock()
	p.reg.Counter("plans_total").Inc()
	p.reg.Counter("plans/snapshot").Inc()
	return nil
}

// Restore imports the snapshot — replay to the barrier, byte-identity proof,
// continue to completion — and reports like FleetPlan, including the
// /debug/bless/fleet state. Serialization drift, digest corruption, or a
// snapshot from a newer format version fail before the run continues.
func (p *Planner) Restore(req RestoreRequest, reply *RestoreReply) error {
	if len(req.Snapshot) == 0 {
		p.reg.Counter("plan_errors_total").Inc()
		return fmt.Errorf("planner: restore request carries no snapshot")
	}
	snap, err := snapshot.Decode(req.Snapshot)
	if err != nil {
		p.reg.Counter("plan_errors_total").Inc()
		return err
	}
	res, err := harness.ImportFleet(req.Snapshot)
	if err != nil {
		p.reg.Counter("plan_errors_total").Inc()
		return err
	}
	reply.BarrierAtMS = float64(snap.BarrierAt) / float64(sim.Millisecond)
	reply.StateDigest = fmt.Sprintf("%016x", snapshot.StateDigest(&snap.State))
	p.reg.Counter("plans/restore").Inc()
	return p.finishFleetPlan(res, &reply.FleetPlanReply)
}

// ServeSnapshot handles GET /debug/bless/snapshot: the most recent
// Planner.Snapshot's raw canonical bytes (application/octet-stream, with the
// state digest in X-Bless-State-Digest). 404 until a snapshot has been cut.
func (p *Planner) ServeSnapshot(w http.ResponseWriter, _ *http.Request) {
	p.mu.Lock()
	data := p.lastSnapshot
	p.mu.Unlock()
	if len(data) == 0 {
		http.Error(w, "no snapshot yet; call Planner.Snapshot first", http.StatusNotFound)
		return
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set("X-Bless-State-Digest", fmt.Sprintf("%016x", snapshot.StateDigest(&snap.State)))
	w.Write(data)
}
