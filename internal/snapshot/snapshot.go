// Package snapshot defines the versioned, canonical wire format for fleet
// runtime snapshots — the export/import primitive behind migration, upgrade
// and crash-recovery testing (the wasmd test-sim-import-export discipline).
//
// A snapshot is cut at a virtual-time barrier of a fleet run and captures
// two things:
//
//   - the generating Scenario: everything needed to rebuild the fleet from
//     nothing in a fresh process (pool, tenants, control schedule, policy,
//     runtime options) — snapshots are self-contained; and
//   - the State: the complete observable logical state at the barrier —
//     per-device control-plane and BLESS-runtime state (clients, quotas,
//     backlogs, fault/retry counters), per-tenant progress (sequence
//     counters, completion order, outstanding requests, closed-loop timers),
//     in-flight migration-drain exchange records, the invariant checker's
//     digest, and the pending device- and control-engine event times.
//
// Pending engine events are closures and cannot be serialized; importing a
// snapshot therefore reconstructs them by deterministic replay of the
// Scenario to the same barrier, then proves the reconstruction by comparing
// the replayed state's canonical encoding byte-for-byte against the State
// section. Any serialization drift or cross-process nondeterminism fails the
// import before the run continues.
//
// Encoding is canonical by construction: fixed field order, little-endian
// fixed-width integers, float bits via math.Float64bits, length-prefixed
// strings and slices, and no maps — the same logical state always encodes to
// the same bytes, which is what makes the byte-compare proof and the golden
// tests possible. The trailing FNV-1a digest authenticates the payload
// against truncation and corruption; the leading version gates forward
// incompatibility (a snapshot written by a newer format version is rejected,
// never misparsed).
package snapshot

import (
	"fmt"
	"math"
	"sync/atomic"

	"bless/internal/sim"
)

// Magic identifies a BLESS snapshot stream.
const Magic = "BLESSNAP"

// Version is the current wire-format version. Decode rejects snapshots
// carrying a newer version; older versions are migrated here as the format
// evolves (none exist yet).
const Version = 1

// Snapshot is one exported fleet runtime state: header, generating scenario,
// and the canonical state at the barrier.
type Snapshot struct {
	// Seed keys the scenario's deterministic control-plane decisions.
	Seed int64
	// Reserved is a header slot kept so Version 1 streams stay
	// byte-compatible. It once carried the exporting run's engine-shard
	// count. Exports write 1; importers must ignore the value.
	Reserved int
	// BarrierAt is the virtual-time barrier the snapshot was cut at.
	BarrierAt sim.Time
	// Horizon is the scenario horizon (new work stops there; the run then
	// drains).
	Horizon sim.Time
	// Scenario regenerates the run from t=0 in a fresh process.
	Scenario Scenario
	// State is the canonical logical state at BarrierAt.
	State State
}

// Scenario is the declarative fleet scenario embedded in every snapshot —
// a process-independent mirror of harness.FleetScenario (the harness owns
// the conversion; this package stays dependency-light).
type Scenario struct {
	Seed            int64
	Policy          string
	Horizon         sim.Time
	ExchangeLatency sim.Time
	Repro           string
	Invariants      bool
	Devices         []DeviceSpec
	Tenants         []TenantSpec
	Migrations      []Migration
	Crashes         []Crash
	Rebalance       *Rebalance
	Autoscale       *Autoscale
	Faults          *FaultPlan
	Runtime         RuntimeOptions
}

// FaultPlan mirrors harness.FleetFaultPlan — the declarative, seeded fleet
// fault spec; per-device injectors are recompiled from it on replay.
type FaultPlan struct {
	Seed               int64
	KernelFaultRate    float64
	MaxFaultsPerKernel int
	CtxFaultRate       float64
}

// DeviceSpec is one pool device: its name and full simulation config.
type DeviceSpec struct {
	Name             string
	SMs              int
	MemoryBytes      int64
	PCIeBytesPerNS   float64
	KernelLaunch     sim.Time
	ContextSwitch    sim.Time
	SquadSync        sim.Time
	ContextMemBytes  int64
	SlowdownCap      float64
	BWSatOccupancy   float64
	InterferenceBeta float64
}

// TenantSpec is one tenant and its closed-loop workload.
type TenantSpec struct {
	Name      string
	App       string
	Quota     float64
	SLOTarget sim.Time
	Think     sim.Time
	Requests  int
}

// Migration is one scheduled live-migration trigger.
type Migration struct {
	At     sim.Time
	Tenant string
	Target int
}

// Crash is one scheduled device crash.
type Crash struct {
	At     sim.Time
	Device int
}

// Rebalance mirrors fleet.RebalanceConfig.
type Rebalance struct {
	Interval     sim.Time
	Threshold    float64
	SustainTicks int
	MaxMoves     int
}

// Autoscale mirrors fleet.AutoscaleConfig.
type Autoscale struct {
	Template      DeviceSpec
	Min, Max      int
	HighWatermark float64
	LowWatermark  float64
}

// RuntimeOptions is the serializable subset of core.Options. Function-valued
// and interface-valued fields (TraceSquad, Injector) cannot cross a process
// boundary; export refuses scenarios that set them.
type RuntimeOptions struct {
	MaxSquadKernels      int
	SplitRatio           float64
	Partitions           int
	SchedPerKernel       sim.Time
	DisableFairSelection bool
	DisableDeterminer    bool
	DisableSemiSP        bool
	QuotaGuard           bool
	NoAdaptiveSizing     bool
	NoFlush              bool
	RetryBackoff         sim.Time
	RetryBackoffCap      sim.Time
	MaxRetries           int
	RequestDeadline      sim.Time
}

// State is the complete observable logical fleet state at a barrier. Every
// field is keyed on canonical entities (devices by id, tenants by admission
// order, requests by sequence) — never on map order — so the same logical
// state always encodes to the same bytes.
type State struct {
	// At is the barrier instant (both engine clocks agree on it).
	At sim.Time
	// Epoch and ShortfallTicks/Churned are the control loop's state.
	Epoch          int64
	ShortfallTicks int
	Churned        bool
	// Stats are the control-plane counters.
	Stats Stats
	// Devices, id order.
	Devices []DeviceState
	// Tenants, admission order.
	Tenants []TenantState
	// Inbox holds in-flight exchange records in canonical (deliver, device,
	// ordinal) order — a snapshot mid-migration carries the drain
	// completions still traveling to their tenants' owners.
	Inbox []ExchangeRecord
	// ControlTimes are the pending control-engine event instants (future
	// rebalance ticks, scheduled migrations and crashes), ascending.
	ControlTimes []sim.Time
	// EventTimes are the live pending device-engine event instants,
	// ascending — the serializable shape of the event queue.
	EventTimes []sim.Time
	// Checker is the fleet invariant checker's running state (nil when the
	// run is unchecked).
	Checker *CheckerState
}

// Stats mirrors fleet.Stats.
type Stats struct {
	Admitted            int
	AdmitRejected       int
	Routed              int64
	Completed           int64
	Failed              int64
	Migrations          int
	MigrationsCompleted int
	MigrationsRejected  int
	Rebalances          int
	ScaleUps            int
	ScaleDowns          int
	DeviceCrashes       int
	Resubmitted         int64
	Evicted             int
	LostToEviction      int
	Epochs              int64
}

// DeviceState is one device's control-plane and runtime state.
type DeviceState struct {
	ID          int
	Name        string
	SMs         int
	MemoryBytes int64
	Deployed    bool
	Retired     bool
	Dead        bool
	NextLocal   int
	Quota       float64
	Mem         int64
	Inflight    int
	Completed   int64
	Failed      int64
	SLOOK       int64
	SLOMiss     int64
	// MemUsed and Utilization are the simulated device's view.
	MemUsed     int64
	Utilization float64
	// Residents, local-id order (live and draining).
	Residents []ResidentState
	// Queues is the device's per-queue simulator state, creation order.
	Queues []QueueState
	// Runtime is the BLESS runtime's state (nil until first resident).
	Runtime *RuntimeState
}

// ResidentState is one tenancy on one device.
type ResidentState struct {
	Local    int
	Tenant   string
	Quota    float64
	Mem      int64
	Draining bool
	Pending  int
}

// QueueState is one device queue's observable simulator state.
type QueueState struct {
	Owner   int
	Pending int
	Paused  bool
	Running bool
}

// RuntimeState is the BLESS runtime's serializable state: clients, quotas,
// backlogs, and the fault/retry counters.
type RuntimeState struct {
	Clients          []ClientState
	SquadsExecuted   int64
	SpatialSquads    int64
	KernelsScheduled int64
	ConfigsEvaluated int64
	SquadRunning     bool
	Faults           FaultCounts
}

// ClientState is one runtime client's state.
type ClientState struct {
	ID          int
	Provisioned float64
	Effective   float64
	Queued      int
	// ActiveSeq is the in-service request's sequence (-1 when idle);
	// ActiveNextK/ActiveInFlight describe its kernel progress.
	ActiveSeq      int
	ActiveNextK    int
	ActiveInFlight int
	Leaving        bool
	Dead           bool
	Released       bool
}

// FaultCounts mirrors core.FaultStats.
type FaultCounts struct {
	KernelFaults     int64
	Retries          int64
	RetryAborts      int64
	DeadlineAborts   int64
	CtxFaults        int64
	StallDelays      int64
	Crashes          int64
	Leaves           int64
	Joins            int64
	CancelledKernels int64
}

// ExchangeRecord is one in-flight migration-drain completion.
type ExchangeRecord struct {
	Deliver sim.Time
	At      sim.Time
	Dev     int
	Seq     uint64
	Tenant  string
	Local   int
	RSeq    int
	Failed  bool
	Lat     sim.Time
	Drained bool
}

// TenantState is one tenant's fleet-side state.
type TenantState struct {
	Name       string
	App        string
	Quota      float64
	SLOTarget  sim.Time
	Think      sim.Time
	Requests   int
	Host       int // current host device (-1 if evicted/none)
	Evicted    bool
	NextSeq    int
	Completed  int
	Failed     int
	Migrations int
	LatencySum sim.Time
	// Order is the completion order of sequence numbers — the digest
	// substrate.
	Order []int
	// Latencies are the successful completions' latencies, completion order.
	Latencies []sim.Time
	// PendingSeqs/PendingDevs are the outstanding requests (ascending seq)
	// and the device each is running on.
	PendingSeqs []int
	PendingDevs []int
	// Drains are the devices still finishing pre-migration backlog.
	Drains []int
	// Timers are the pending closed-loop submission instants.
	Timers []sim.Time
}

// CheckerState is the fleet invariant checker's running state at the
// barrier: the event digest and its feed counters.
type CheckerState struct {
	Digest    uint64
	Events    int64
	Routed    int64
	Completed int64
	Rerouted  int64
}

// fnvOffset/fnvPrime are the FNV-1a constants used across the repo.
const (
	fnvOffset uint64 = 1469598103934665603
	fnvPrime  uint64 = 1099511628211
)

func fnv1a(data []byte) uint64 {
	h := fnvOffset
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// writer builds the canonical byte stream.
type writer struct{ buf []byte }

func (w *writer) u32(v uint32) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (w *writer) u64(v uint64) {
	w.buf = append(w.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func (w *writer) i64(v int64)     { w.u64(uint64(v)) }
func (w *writer) vint(v int)      { w.i64(int64(v)) }
func (w *writer) time(t sim.Time) { w.i64(int64(t)) }
func (w *writer) f64(v float64)   { w.u64(math.Float64bits(v)) }

func (w *writer) bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) times(ts []sim.Time) {
	w.u32(uint32(len(ts)))
	for _, t := range ts {
		w.time(t)
	}
}

func (w *writer) ints(vs []int) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.vint(v)
	}
}

// reader consumes the canonical byte stream with a sticky error.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail("truncated at offset %d (need %d bytes, have %d)", r.off, n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (r *reader) i64() int64     { return int64(r.u64()) }
func (r *reader) vint() int      { return int(r.i64()) }
func (r *reader) time() sim.Time { return sim.Time(r.i64()) }
func (r *reader) f64() float64   { return math.Float64frombits(r.u64()) }

func (r *reader) bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid bool byte %#x at offset %d", b[0], r.off-1)
		return false
	}
}

func (r *reader) str() string {
	n := int(r.u32())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// count validates a slice length against the remaining bytes (each element
// is at least min bytes) so a corrupted length cannot force a huge alloc.
func (r *reader) count(min int) int {
	n := int(r.u32())
	if r.err == nil && min > 0 && n > (len(r.buf)-r.off)/min {
		r.fail("slice length %d at offset %d exceeds remaining payload", n, r.off-4)
		return 0
	}
	return n
}

func (r *reader) times() []sim.Time {
	n := r.count(8)
	if n == 0 || r.err != nil {
		return nil
	}
	ts := make([]sim.Time, n)
	for i := range ts {
		ts[i] = r.time()
	}
	return ts
}

func (r *reader) ints() []int {
	n := r.count(8)
	if n == 0 || r.err != nil {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = r.vint()
	}
	return vs
}

// sizeHint tracks the largest encoding produced so far (process-wide), so
// repeated exports pre-size their buffer once instead of paying the
// geometric-regrowth copies on every multi-megabyte snapshot.
var sizeHint atomic.Int64

func encodeBuf() []byte {
	n := int(sizeHint.Load())
	if n < 4096 {
		n = 4096
	}
	return make([]byte, 0, n)
}

func noteSize(n int) {
	for {
		cur := sizeHint.Load()
		if int64(n) <= cur || sizeHint.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// Encode serializes the snapshot to its canonical byte form:
//
//	magic[8] | version u32 | scenario | state | fnv1a(all preceding) u64
func Encode(s *Snapshot) []byte { return AppendEncode(encodeBuf(), s) }

// AppendEncode appends the snapshot's canonical byte form to buf and returns
// the extended slice, reusing buf's capacity — callers on a steady-state
// export path can hold one buffer across exports and encode without
// allocating.
func AppendEncode(buf []byte, s *Snapshot) []byte {
	w := &writer{buf: buf}
	start := len(buf)
	w.buf = append(w.buf, Magic...)
	w.u32(Version)
	w.i64(s.Seed)
	w.vint(s.Reserved)
	w.time(s.BarrierAt)
	w.time(s.Horizon)
	encodeScenario(w, &s.Scenario)
	encodeState(w, &s.State)
	w.u64(fnv1a(w.buf[start:]))
	noteSize(len(w.buf) - start)
	return w.buf
}

// EncodeState serializes just the state section — the canonical bytes the
// import proof compares and the state digest is computed over.
func EncodeState(st *State) []byte { return AppendEncodeState(encodeBuf(), st) }

// AppendEncodeState appends the state section's canonical bytes to buf,
// reusing its capacity (see AppendEncode).
func AppendEncodeState(buf []byte, st *State) []byte {
	w := &writer{buf: buf}
	start := len(buf)
	encodeState(w, st)
	noteSize(len(w.buf) - start)
	return w.buf
}

// StateDigest is the FNV-1a digest of the state's canonical encoding.
func StateDigest(st *State) uint64 { return fnv1a(EncodeState(st)) }

// Decode parses and authenticates a snapshot stream. It rejects a bad magic,
// a version newer than this build supports, a payload digest mismatch
// (truncation/corruption), and trailing garbage.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(Magic)+4+8 {
		return nil, fmt.Errorf("snapshot: %d bytes is too short to be a snapshot", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q (want %q)", data[:len(Magic)], Magic)
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	r := &reader{buf: tail}
	if got, want := r.u64(), fnv1a(body); got != want {
		return nil, fmt.Errorf("snapshot: payload digest mismatch (%016x != %016x) — truncated or corrupted", got, want)
	}
	r = &reader{buf: body, off: len(Magic)}
	version := r.u32()
	if version > Version {
		return nil, fmt.Errorf("snapshot: format version %d is newer than this build supports (%d) — refusing to misparse", version, Version)
	}
	if version == 0 {
		return nil, fmt.Errorf("snapshot: invalid format version 0")
	}
	s := &Snapshot{}
	s.Seed = r.i64()
	s.Reserved = r.vint()
	s.BarrierAt = r.time()
	s.Horizon = r.time()
	decodeScenario(r, &s.Scenario)
	decodeState(r, &s.State)
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after the state section", len(body)-r.off)
	}
	return s, nil
}

func encodeDeviceSpec(w *writer, d *DeviceSpec) {
	w.str(d.Name)
	w.vint(d.SMs)
	w.i64(d.MemoryBytes)
	w.f64(d.PCIeBytesPerNS)
	w.time(d.KernelLaunch)
	w.time(d.ContextSwitch)
	w.time(d.SquadSync)
	w.i64(d.ContextMemBytes)
	w.f64(d.SlowdownCap)
	w.f64(d.BWSatOccupancy)
	w.f64(d.InterferenceBeta)
}

func decodeDeviceSpec(r *reader, d *DeviceSpec) {
	d.Name = r.str()
	d.SMs = r.vint()
	d.MemoryBytes = r.i64()
	d.PCIeBytesPerNS = r.f64()
	d.KernelLaunch = r.time()
	d.ContextSwitch = r.time()
	d.SquadSync = r.time()
	d.ContextMemBytes = r.i64()
	d.SlowdownCap = r.f64()
	d.BWSatOccupancy = r.f64()
	d.InterferenceBeta = r.f64()
}

func encodeScenario(w *writer, sc *Scenario) {
	w.i64(sc.Seed)
	w.str(sc.Policy)
	w.time(sc.Horizon)
	w.time(sc.ExchangeLatency)
	w.str(sc.Repro)
	w.bool(sc.Invariants)
	w.u32(uint32(len(sc.Devices)))
	for i := range sc.Devices {
		encodeDeviceSpec(w, &sc.Devices[i])
	}
	w.u32(uint32(len(sc.Tenants)))
	for i := range sc.Tenants {
		t := &sc.Tenants[i]
		w.str(t.Name)
		w.str(t.App)
		w.f64(t.Quota)
		w.time(t.SLOTarget)
		w.time(t.Think)
		w.vint(t.Requests)
	}
	w.u32(uint32(len(sc.Migrations)))
	for _, m := range sc.Migrations {
		w.time(m.At)
		w.str(m.Tenant)
		w.vint(m.Target)
	}
	w.u32(uint32(len(sc.Crashes)))
	for _, c := range sc.Crashes {
		w.time(c.At)
		w.vint(c.Device)
	}
	w.bool(sc.Rebalance != nil)
	if sc.Rebalance != nil {
		w.time(sc.Rebalance.Interval)
		w.f64(sc.Rebalance.Threshold)
		w.vint(sc.Rebalance.SustainTicks)
		w.vint(sc.Rebalance.MaxMoves)
	}
	w.bool(sc.Autoscale != nil)
	if sc.Autoscale != nil {
		encodeDeviceSpec(w, &sc.Autoscale.Template)
		w.vint(sc.Autoscale.Min)
		w.vint(sc.Autoscale.Max)
		w.f64(sc.Autoscale.HighWatermark)
		w.f64(sc.Autoscale.LowWatermark)
	}
	w.bool(sc.Faults != nil)
	if sc.Faults != nil {
		w.i64(sc.Faults.Seed)
		w.f64(sc.Faults.KernelFaultRate)
		w.vint(sc.Faults.MaxFaultsPerKernel)
		w.f64(sc.Faults.CtxFaultRate)
	}
	o := &sc.Runtime
	w.vint(o.MaxSquadKernels)
	w.f64(o.SplitRatio)
	w.vint(o.Partitions)
	w.time(o.SchedPerKernel)
	w.bool(o.DisableFairSelection)
	w.bool(o.DisableDeterminer)
	w.bool(o.DisableSemiSP)
	w.bool(o.QuotaGuard)
	w.bool(o.NoAdaptiveSizing)
	w.bool(o.NoFlush)
	w.time(o.RetryBackoff)
	w.time(o.RetryBackoffCap)
	w.vint(o.MaxRetries)
	w.time(o.RequestDeadline)
}

func decodeScenario(r *reader, sc *Scenario) {
	sc.Seed = r.i64()
	sc.Policy = r.str()
	sc.Horizon = r.time()
	sc.ExchangeLatency = r.time()
	sc.Repro = r.str()
	sc.Invariants = r.bool()
	if n := r.count(16); n > 0 && r.err == nil {
		sc.Devices = make([]DeviceSpec, n)
		for i := range sc.Devices {
			decodeDeviceSpec(r, &sc.Devices[i])
		}
	}
	if n := r.count(16); n > 0 && r.err == nil {
		sc.Tenants = make([]TenantSpec, n)
		for i := range sc.Tenants {
			t := &sc.Tenants[i]
			t.Name = r.str()
			t.App = r.str()
			t.Quota = r.f64()
			t.SLOTarget = r.time()
			t.Think = r.time()
			t.Requests = r.vint()
		}
	}
	if n := r.count(16); n > 0 && r.err == nil {
		sc.Migrations = make([]Migration, n)
		for i := range sc.Migrations {
			m := &sc.Migrations[i]
			m.At = r.time()
			m.Tenant = r.str()
			m.Target = r.vint()
		}
	}
	if n := r.count(16); n > 0 && r.err == nil {
		sc.Crashes = make([]Crash, n)
		for i := range sc.Crashes {
			sc.Crashes[i].At = r.time()
			sc.Crashes[i].Device = r.vint()
		}
	}
	if r.bool() {
		sc.Rebalance = &Rebalance{
			Interval:     r.time(),
			Threshold:    r.f64(),
			SustainTicks: r.vint(),
			MaxMoves:     r.vint(),
		}
	}
	if r.bool() {
		a := &Autoscale{}
		decodeDeviceSpec(r, &a.Template)
		a.Min = r.vint()
		a.Max = r.vint()
		a.HighWatermark = r.f64()
		a.LowWatermark = r.f64()
		sc.Autoscale = a
	}
	if r.bool() {
		sc.Faults = &FaultPlan{
			Seed:               r.i64(),
			KernelFaultRate:    r.f64(),
			MaxFaultsPerKernel: r.vint(),
			CtxFaultRate:       r.f64(),
		}
	}
	o := &sc.Runtime
	o.MaxSquadKernels = r.vint()
	o.SplitRatio = r.f64()
	o.Partitions = r.vint()
	o.SchedPerKernel = r.time()
	o.DisableFairSelection = r.bool()
	o.DisableDeterminer = r.bool()
	o.DisableSemiSP = r.bool()
	o.QuotaGuard = r.bool()
	o.NoAdaptiveSizing = r.bool()
	o.NoFlush = r.bool()
	o.RetryBackoff = r.time()
	o.RetryBackoffCap = r.time()
	o.MaxRetries = r.vint()
	o.RequestDeadline = r.time()
}

func encodeState(w *writer, st *State) {
	w.time(st.At)
	w.i64(st.Epoch)
	w.vint(st.ShortfallTicks)
	w.bool(st.Churned)
	s := &st.Stats
	w.vint(s.Admitted)
	w.vint(s.AdmitRejected)
	w.i64(s.Routed)
	w.i64(s.Completed)
	w.i64(s.Failed)
	w.vint(s.Migrations)
	w.vint(s.MigrationsCompleted)
	w.vint(s.MigrationsRejected)
	w.vint(s.Rebalances)
	w.vint(s.ScaleUps)
	w.vint(s.ScaleDowns)
	w.vint(s.DeviceCrashes)
	w.i64(s.Resubmitted)
	w.vint(s.Evicted)
	w.vint(s.LostToEviction)
	w.i64(s.Epochs)
	w.u32(uint32(len(st.Devices)))
	for i := range st.Devices {
		d := &st.Devices[i]
		w.vint(d.ID)
		w.str(d.Name)
		w.vint(d.SMs)
		w.i64(d.MemoryBytes)
		w.bool(d.Deployed)
		w.bool(d.Retired)
		w.bool(d.Dead)
		w.vint(d.NextLocal)
		w.f64(d.Quota)
		w.i64(d.Mem)
		w.vint(d.Inflight)
		w.i64(d.Completed)
		w.i64(d.Failed)
		w.i64(d.SLOOK)
		w.i64(d.SLOMiss)
		w.i64(d.MemUsed)
		w.f64(d.Utilization)
		w.u32(uint32(len(d.Residents)))
		for _, res := range d.Residents {
			w.vint(res.Local)
			w.str(res.Tenant)
			w.f64(res.Quota)
			w.i64(res.Mem)
			w.bool(res.Draining)
			w.vint(res.Pending)
		}
		w.u32(uint32(len(d.Queues)))
		for _, q := range d.Queues {
			w.vint(q.Owner)
			w.vint(q.Pending)
			w.bool(q.Paused)
			w.bool(q.Running)
		}
		w.bool(d.Runtime != nil)
		if d.Runtime != nil {
			rt := d.Runtime
			w.u32(uint32(len(rt.Clients)))
			for _, c := range rt.Clients {
				w.vint(c.ID)
				w.f64(c.Provisioned)
				w.f64(c.Effective)
				w.vint(c.Queued)
				w.vint(c.ActiveSeq)
				w.vint(c.ActiveNextK)
				w.vint(c.ActiveInFlight)
				w.bool(c.Leaving)
				w.bool(c.Dead)
				w.bool(c.Released)
			}
			w.i64(rt.SquadsExecuted)
			w.i64(rt.SpatialSquads)
			w.i64(rt.KernelsScheduled)
			w.i64(rt.ConfigsEvaluated)
			w.bool(rt.SquadRunning)
			f := &rt.Faults
			w.i64(f.KernelFaults)
			w.i64(f.Retries)
			w.i64(f.RetryAborts)
			w.i64(f.DeadlineAborts)
			w.i64(f.CtxFaults)
			w.i64(f.StallDelays)
			w.i64(f.Crashes)
			w.i64(f.Leaves)
			w.i64(f.Joins)
			w.i64(f.CancelledKernels)
		}
	}
	w.u32(uint32(len(st.Tenants)))
	for i := range st.Tenants {
		t := &st.Tenants[i]
		w.str(t.Name)
		w.str(t.App)
		w.f64(t.Quota)
		w.time(t.SLOTarget)
		w.time(t.Think)
		w.vint(t.Requests)
		w.vint(t.Host)
		w.bool(t.Evicted)
		w.vint(t.NextSeq)
		w.vint(t.Completed)
		w.vint(t.Failed)
		w.vint(t.Migrations)
		w.time(t.LatencySum)
		w.ints(t.Order)
		w.times(t.Latencies)
		w.ints(t.PendingSeqs)
		w.ints(t.PendingDevs)
		w.ints(t.Drains)
		w.times(t.Timers)
	}
	w.u32(uint32(len(st.Inbox)))
	for i := range st.Inbox {
		rec := &st.Inbox[i]
		w.time(rec.Deliver)
		w.time(rec.At)
		w.vint(rec.Dev)
		w.u64(rec.Seq)
		w.str(rec.Tenant)
		w.vint(rec.Local)
		w.vint(rec.RSeq)
		w.bool(rec.Failed)
		w.time(rec.Lat)
		w.bool(rec.Drained)
	}
	w.times(st.ControlTimes)
	w.times(st.EventTimes)
	w.bool(st.Checker != nil)
	if st.Checker != nil {
		w.u64(st.Checker.Digest)
		w.i64(st.Checker.Events)
		w.i64(st.Checker.Routed)
		w.i64(st.Checker.Completed)
		w.i64(st.Checker.Rerouted)
	}
}

func decodeState(r *reader, st *State) {
	st.At = r.time()
	st.Epoch = r.i64()
	st.ShortfallTicks = r.vint()
	st.Churned = r.bool()
	s := &st.Stats
	s.Admitted = r.vint()
	s.AdmitRejected = r.vint()
	s.Routed = r.i64()
	s.Completed = r.i64()
	s.Failed = r.i64()
	s.Migrations = r.vint()
	s.MigrationsCompleted = r.vint()
	s.MigrationsRejected = r.vint()
	s.Rebalances = r.vint()
	s.ScaleUps = r.vint()
	s.ScaleDowns = r.vint()
	s.DeviceCrashes = r.vint()
	s.Resubmitted = r.i64()
	s.Evicted = r.vint()
	s.LostToEviction = r.vint()
	s.Epochs = r.i64()
	if n := r.count(32); n > 0 && r.err == nil {
		st.Devices = make([]DeviceState, n)
		for i := range st.Devices {
			d := &st.Devices[i]
			d.ID = r.vint()
			d.Name = r.str()
			d.SMs = r.vint()
			d.MemoryBytes = r.i64()
			d.Deployed = r.bool()
			d.Retired = r.bool()
			d.Dead = r.bool()
			d.NextLocal = r.vint()
			d.Quota = r.f64()
			d.Mem = r.i64()
			d.Inflight = r.vint()
			d.Completed = r.i64()
			d.Failed = r.i64()
			d.SLOOK = r.i64()
			d.SLOMiss = r.i64()
			d.MemUsed = r.i64()
			d.Utilization = r.f64()
			if n := r.count(16); n > 0 && r.err == nil {
				d.Residents = make([]ResidentState, n)
				for j := range d.Residents {
					res := &d.Residents[j]
					res.Local = r.vint()
					res.Tenant = r.str()
					res.Quota = r.f64()
					res.Mem = r.i64()
					res.Draining = r.bool()
					res.Pending = r.vint()
				}
			}
			if n := r.count(16); n > 0 && r.err == nil {
				d.Queues = make([]QueueState, n)
				for j := range d.Queues {
					q := &d.Queues[j]
					q.Owner = r.vint()
					q.Pending = r.vint()
					q.Paused = r.bool()
					q.Running = r.bool()
				}
			}
			if r.bool() {
				rt := &RuntimeState{}
				if n := r.count(32); n > 0 && r.err == nil {
					rt.Clients = make([]ClientState, n)
					for j := range rt.Clients {
						c := &rt.Clients[j]
						c.ID = r.vint()
						c.Provisioned = r.f64()
						c.Effective = r.f64()
						c.Queued = r.vint()
						c.ActiveSeq = r.vint()
						c.ActiveNextK = r.vint()
						c.ActiveInFlight = r.vint()
						c.Leaving = r.bool()
						c.Dead = r.bool()
						c.Released = r.bool()
					}
				}
				rt.SquadsExecuted = r.i64()
				rt.SpatialSquads = r.i64()
				rt.KernelsScheduled = r.i64()
				rt.ConfigsEvaluated = r.i64()
				rt.SquadRunning = r.bool()
				f := &rt.Faults
				f.KernelFaults = r.i64()
				f.Retries = r.i64()
				f.RetryAborts = r.i64()
				f.DeadlineAborts = r.i64()
				f.CtxFaults = r.i64()
				f.StallDelays = r.i64()
				f.Crashes = r.i64()
				f.Leaves = r.i64()
				f.Joins = r.i64()
				f.CancelledKernels = r.i64()
				d.Runtime = rt
			}
		}
	}
	if n := r.count(32); n > 0 && r.err == nil {
		st.Tenants = make([]TenantState, n)
		for i := range st.Tenants {
			t := &st.Tenants[i]
			t.Name = r.str()
			t.App = r.str()
			t.Quota = r.f64()
			t.SLOTarget = r.time()
			t.Think = r.time()
			t.Requests = r.vint()
			t.Host = r.vint()
			t.Evicted = r.bool()
			t.NextSeq = r.vint()
			t.Completed = r.vint()
			t.Failed = r.vint()
			t.Migrations = r.vint()
			t.LatencySum = r.time()
			t.Order = r.ints()
			t.Latencies = r.times()
			t.PendingSeqs = r.ints()
			t.PendingDevs = r.ints()
			t.Drains = r.ints()
			t.Timers = r.times()
		}
	}
	if n := r.count(32); n > 0 && r.err == nil {
		st.Inbox = make([]ExchangeRecord, n)
		for i := range st.Inbox {
			rec := &st.Inbox[i]
			rec.Deliver = r.time()
			rec.At = r.time()
			rec.Dev = r.vint()
			rec.Seq = r.u64()
			rec.Tenant = r.str()
			rec.Local = r.vint()
			rec.RSeq = r.vint()
			rec.Failed = r.bool()
			rec.Lat = r.time()
			rec.Drained = r.bool()
		}
	}
	st.ControlTimes = r.times()
	st.EventTimes = r.times()
	if r.bool() {
		st.Checker = &CheckerState{
			Digest:    r.u64(),
			Events:    r.i64(),
			Routed:    r.i64(),
			Completed: r.i64(),
			Rerouted:  r.i64(),
		}
	}
}
