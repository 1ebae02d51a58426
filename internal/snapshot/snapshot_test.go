package snapshot

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"bless/internal/sim"
)

// sampleSnapshot exercises every wire-format field at least once: optional
// sections present, nested slices non-empty, negative and boundary values.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Seed:      7,
		Reserved:  4,
		BarrierAt: 25 * sim.Millisecond,
		Horizon:   60 * sim.Millisecond,
		Scenario: Scenario{
			Seed:            7,
			Policy:          "least-loaded",
			Horizon:         60 * sim.Millisecond,
			ExchangeLatency: 100 * sim.Microsecond,
			Repro:           "blessbench -fleet -smoke -seed 7",
			Invariants:      true,
			Devices: []DeviceSpec{
				{Name: "gpu0", SMs: 108, MemoryBytes: 40 << 30, PCIeBytesPerNS: 25,
					KernelLaunch: 3 * sim.Microsecond, ContextSwitch: 50 * sim.Microsecond,
					SquadSync: 20 * sim.Microsecond, ContextMemBytes: 230 << 20,
					SlowdownCap: 2, BWSatOccupancy: 0.5, InterferenceBeta: 0.3},
				{Name: "gpu1", SMs: 60, MemoryBytes: 24 << 30, PCIeBytesPerNS: 25},
			},
			Tenants: []TenantSpec{
				{Name: "t000", App: "vgg11", Quota: 0.13, Think: 2 * sim.Millisecond},
				{Name: "t001", App: "bert", Quota: 0.18, SLOTarget: 150 * sim.Millisecond,
					Think: 3 * sim.Millisecond, Requests: 12},
			},
			Migrations: []Migration{{At: 20 * sim.Millisecond, Tenant: "t000", Target: 1}},
			Crashes:    []Crash{{At: 20 * sim.Millisecond, Device: 1}},
			Rebalance:  &Rebalance{Interval: 10 * sim.Millisecond, Threshold: 0.25, SustainTicks: 2, MaxMoves: 4},
			Autoscale: &Autoscale{
				Template: DeviceSpec{Name: "gpu", SMs: 108, MemoryBytes: 40 << 30},
				Min:      2, Max: 6, HighWatermark: 0.85, LowWatermark: 0.2,
			},
			Faults: &FaultPlan{Seed: 99, KernelFaultRate: 0.02, MaxFaultsPerKernel: 2, CtxFaultRate: 0.01},
			Runtime: RuntimeOptions{
				MaxSquadKernels: 50, SplitRatio: 0.5, Partitions: 18,
				SchedPerKernel: 6700, QuotaGuard: true,
				RetryBackoff: 20 * sim.Microsecond, RetryBackoffCap: sim.Millisecond,
				MaxRetries: 8, RequestDeadline: 500 * sim.Millisecond,
			},
		},
		State: State{
			At:             25 * sim.Millisecond,
			Epoch:          2,
			ShortfallTicks: 1,
			Churned:        true,
			Stats: Stats{Admitted: 2, Routed: 40, Completed: 31, Failed: 1,
				Migrations: 1, Rebalances: 1, DeviceCrashes: 1, Resubmitted: 3, Epochs: 2},
			Devices: []DeviceState{
				{
					ID: 0, Name: "gpu0", SMs: 108, MemoryBytes: 40 << 30,
					Deployed: true, NextLocal: 3, Quota: 0.31, Mem: 5 << 30,
					Inflight: 2, Completed: 17, SLOOK: 9, SLOMiss: 1,
					MemUsed: 4 << 30, Utilization: 0.4375,
					Residents: []ResidentState{
						{Local: 0, Tenant: "t000", Quota: 0.13, Mem: 2 << 30, Pending: 1},
						{Local: 2, Tenant: "t001", Quota: 0.18, Mem: 3 << 30, Draining: true, Pending: 1},
					},
					Queues: []QueueState{
						{Owner: 0, Pending: 1, Running: true},
						{Owner: -1, Paused: true},
					},
					Runtime: &RuntimeState{
						Clients: []ClientState{
							{ID: 0, Provisioned: 0.13, Effective: 0.13, Queued: 1,
								ActiveSeq: 4, ActiveNextK: 7, ActiveInFlight: 2},
							{ID: 2, Provisioned: 0.18, Effective: 0.18, ActiveSeq: -1,
								Leaving: true},
						},
						SquadsExecuted: 9, SpatialSquads: 6, KernelsScheduled: 310,
						ConfigsEvaluated: 120, SquadRunning: true,
						Faults: FaultCounts{KernelFaults: 2, Retries: 2, Joins: 2},
					},
				},
				{ID: 1, Name: "gpu1", SMs: 60, MemoryBytes: 24 << 30, Dead: true},
			},
			Tenants: []TenantState{
				{
					Name: "t000", App: "vgg11", Quota: 0.13, Think: 2 * sim.Millisecond,
					Host: 0, NextSeq: 5, Completed: 4,
					LatencySum:  48 * sim.Millisecond,
					Order:       []int{0, 1, 2, 3},
					Latencies:   []sim.Time{12 * sim.Millisecond, 11 * sim.Millisecond, 13 * sim.Millisecond, 12 * sim.Millisecond},
					PendingSeqs: []int{4},
					PendingDevs: []int{0},
					Timers:      []sim.Time{27 * sim.Millisecond},
				},
				{
					Name: "t001", App: "bert", Quota: 0.18, SLOTarget: 150 * sim.Millisecond,
					Think: 3 * sim.Millisecond, Requests: 12,
					Host: 0, Evicted: false, NextSeq: 3, Completed: 2, Failed: 1,
					Migrations: 1, Drains: []int{0},
					PendingSeqs: []int{2}, PendingDevs: []int{0},
				},
			},
			Inbox: []ExchangeRecord{
				{Deliver: 25*sim.Millisecond + 40*sim.Microsecond, At: 25*sim.Millisecond - 60*sim.Microsecond,
					Dev: 0, Seq: 3, Tenant: "t001", Local: 2, RSeq: 2, Lat: 9 * sim.Millisecond, Drained: true},
			},
			ControlTimes: []sim.Time{30 * sim.Millisecond, 40 * sim.Millisecond},
			EventTimes:   []sim.Time{25*sim.Millisecond + 3*sim.Microsecond, 27 * sim.Millisecond},
			Checker:      &CheckerState{Digest: 0xdeadbeefcafef00d, Events: 81, Routed: 40, Completed: 31, Rerouted: 3},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	data := Encode(s)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// Canonical encoding: re-encoding the decoded snapshot must reproduce
	// the exact bytes, which subsumes a field-by-field comparison.
	if !bytes.Equal(Encode(got), data) {
		t.Fatal("re-encoded snapshot differs from original bytes")
	}
	if got.Scenario.Faults == nil || got.State.Checker == nil || got.State.Devices[0].Runtime == nil {
		t.Fatal("optional sections lost in round trip")
	}
	if StateDigest(&got.State) != StateDigest(&s.State) {
		t.Fatal("state digest moved across round trip")
	}
}

func TestSnapshotRoundTripMinimal(t *testing.T) {
	s := &Snapshot{Seed: 1, Reserved: 1, Scenario: Scenario{Seed: 1}}
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatalf("decode minimal: %v", err)
	}
	if !bytes.Equal(Encode(got), Encode(s)) {
		t.Fatal("minimal snapshot not canonical")
	}
	if got.Scenario.Rebalance != nil || got.State.Checker != nil {
		t.Fatal("optional sections materialized from nothing")
	}
}

// TestSnapshotGolden pins the wire format: the header bytes exactly, and the
// digest of the full sample encoding. Any unintentional change to field
// order, widths, or endianness breaks this test — intentional changes must
// bump Version and update the golden values.
func TestSnapshotGolden(t *testing.T) {
	data := Encode(sampleSnapshot())
	const goldenHeader = "424c4553534e415001000000" // "BLESSNAP" + version 1 LE
	if got := hex.EncodeToString(data[:12]); got != goldenHeader {
		t.Fatalf("header drifted:\n got %s\nwant %s", got, goldenHeader)
	}
	const goldenDigest = uint64(0xb427185178a80904)
	if got := fnv1a(data); got != goldenDigest {
		t.Fatalf("wire format drifted: payload digest %#x, golden %#x — if intentional, bump Version and refresh", got, goldenDigest)
	}
}

func TestSnapshotDecodeRejectsBadMagic(t *testing.T) {
	data := Encode(sampleSnapshot())
	data[0] = 'X'
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic not rejected: %v", err)
	}
}

func TestSnapshotDecodeRejectsNewerVersion(t *testing.T) {
	s := sampleSnapshot()
	data := Encode(s)
	// Patch the version field (offset 8, LE u32) to Version+1 and re-seal
	// the digest — a well-formed snapshot from a future build.
	data[8] = byte(Version + 1)
	body := data[:len(data)-8]
	d := fnv1a(body)
	for i := 0; i < 8; i++ {
		data[len(body)+i] = byte(d >> (8 * i))
	}
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("forward-incompatible snapshot not rejected: %v", err)
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	data := Encode(sampleSnapshot())
	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0x40
	if _, err := Decode(flip); err == nil {
		t.Fatal("corrupted payload not rejected")
	}
	trunc := data[:len(data)-9]
	if _, err := Decode(trunc); err == nil {
		t.Fatal("truncated payload not rejected")
	}
	if _, err := Decode(data[:4]); err == nil {
		t.Fatal("too-short payload not rejected")
	}
}

func TestSnapshotDecodeRejectsTrailingBytes(t *testing.T) {
	s := sampleSnapshot()
	w := &writer{}
	w.buf = append(w.buf, Magic...)
	w.u32(Version)
	w.i64(s.Seed)
	w.vint(s.Reserved)
	w.time(s.BarrierAt)
	w.time(s.Horizon)
	encodeScenario(w, &s.Scenario)
	encodeState(w, &s.State)
	w.buf = append(w.buf, 0xAA) // smuggled trailing byte inside the sealed body
	w.u64(fnv1a(w.buf))
	if _, err := Decode(w.buf); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes not rejected: %v", err)
	}
}

func TestSnapshotDecodeRejectsHugeLength(t *testing.T) {
	// A corrupted slice length must fail cleanly, not attempt a giant alloc.
	w := &writer{}
	w.buf = append(w.buf, Magic...)
	w.u32(Version)
	w.i64(1)
	w.vint(1)
	w.time(0)
	w.time(0)
	w.i64(1)       // scenario seed
	w.str("p")     // policy
	w.time(0)      // horizon
	w.time(0)      // exchange latency
	w.str("")      // repro
	w.bool(false)  // invariants
	w.u32(1 << 30) // devices length: absurd
	w.u64(fnv1a(w.buf))
	if _, err := Decode(w.buf); err == nil {
		t.Fatal("absurd slice length not rejected")
	}
}
