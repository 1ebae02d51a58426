package core

import (
	"fmt"

	"bless/internal/sim"
)

// Serve-path admission: the deterministic per-tenant lane model behind
// blessd's sustained-load front end.
//
// A ServeLane is a G/D/1 queue in virtual time for one tenant. Arrivals are
// client-stamped — request seq arrives at seq x Interval — and service is
// the tenant's bubble-free cost at its provisioned quota (the §4.2.2
// admission contract: a quota-q tenant is promised the throughput of a
// dedicated q-fraction device, i.e. one request per IsoAtQuota(q)). A
// request is admitted when its queueing delay behind the lane's backlog
// stays within Bound; otherwise it is shed with a retry-after that tells
// the client when the lane drains back to feasible.
//
// Every decision is a pure function of (lane state, seq), and lane state
// advances only by per-tenant seq order — cross-tenant interleaving cannot
// influence any decision. That is the determinism backbone of the serving
// path: any concurrent arrival order across tenants produces bit-identical
// per-tenant decision digests, which fold order-independently (XOR) into the
// serve digest compared between serial and concurrent runs.
type ServeLane struct {
	// Interval is the tenant's nominal inter-arrival gap: request seq
	// arrives at seq x Interval of virtual time.
	Interval sim.Time
	// Service is the bubble-free per-request cost at the tenant's quota
	// (Profile.IsoAtQuota), charged on admission.
	Service sim.Time
	// Bound is the maximum queueing delay an admitted request may see; a
	// request that would wait longer is shed.
	Bound sim.Time

	// busy is the lane's busy-until instant: the virtual time at which all
	// admitted work drains.
	busy sim.Time
	// next is the next expected seq (requests must arrive in per-tenant seq
	// order; the serving front end parks early arrivals until it is their
	// turn).
	next int
	// Admitted and Shed count decisions.
	Admitted, Shed uint64
	// digest chains every decision: FNV-1a over (seq, admitted, start).
	digest uint64
}

// ServeDecision is the outcome of one admission decision. All times are
// virtual.
type ServeDecision struct {
	Seq      int
	Admitted bool
	// Arrive is the client-stamped arrival (Seq x Interval); Start is when
	// service begins; Wait = Start - Arrive is the queueing delay.
	Arrive, Start, Wait sim.Time
	// Service is the charged bubble-free cost (admitted only).
	Service sim.Time
	// RetryAfter is how far beyond the bound the lane's backlog runs — the
	// virtual delay after which a retry of this request would be admitted
	// (shed only).
	RetryAfter sim.Time
}

// NewServeLane builds a lane. Interval and Service must be positive; Bound
// may be zero (admit only bubble-free-immediate requests).
func NewServeLane(interval, service, bound sim.Time) (*ServeLane, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("core: serve lane interval must be positive, got %d", interval)
	}
	if service <= 0 {
		return nil, fmt.Errorf("core: serve lane service must be positive, got %d", service)
	}
	if bound < 0 {
		return nil, fmt.Errorf("core: serve lane bound must be >= 0, got %d", bound)
	}
	return &ServeLane{Interval: interval, Service: service, Bound: bound, digest: fnvOffset}, nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Decide runs one admission decision for seq, filling d in place (the serve
// fast path allocates nothing). Seqs must arrive in order per lane; a gap or
// replay is a pipeline bug and panics with the lane's evidence.
func (l *ServeLane) Decide(seq int, d *ServeDecision) {
	if seq != l.next {
		panic(fmt.Sprintf("core: serve lane got seq %d, want %d (per-tenant FIFO broken)", seq, l.next))
	}
	l.next++
	arrive := sim.Time(seq) * l.Interval
	start := arrive
	if l.busy > start {
		start = l.busy
	}
	wait := start - arrive
	d.Seq = seq
	d.Arrive = arrive
	d.Start = start
	d.Wait = wait
	d.RetryAfter = 0
	d.Service = 0
	if wait <= l.Bound {
		d.Admitted = true
		d.Service = l.Service
		l.busy = start + l.Service
		l.Admitted++
	} else {
		d.Admitted = false
		d.RetryAfter = wait - l.Bound
		l.Shed++
	}
	h := fnvFold(l.digest, uint64(seq))
	var adm uint64
	if d.Admitted {
		adm = 1
	}
	h = fnvFold(h, adm)
	l.digest = fnvFold(h, uint64(start))
}

// DecideBatch decides a contiguous run of n requests starting at firstSeq in
// one pass, appending the decisions to out and returning the extended slice.
func (l *ServeLane) DecideBatch(firstSeq, n int, out []ServeDecision) []ServeDecision {
	for i := 0; i < n; i++ {
		var d ServeDecision
		l.Decide(firstSeq+i, &d)
		out = append(out, d)
	}
	return out
}

// Digest is the lane's decision-chain digest.
func (l *ServeLane) Digest() uint64 { return l.digest }

// SeedDigest mixes a tenant-identifying tag into the digest chain. Without
// it, tenants with identical lane parameters and identical request streams
// produce identical digests, and an even number of them cancels to zero in
// the XOR fold — seeding by tenant name keeps the fold sensitive to every
// lane. Call before the first decision.
func (l *ServeLane) SeedDigest(tag string) {
	for i := 0; i < len(tag); i++ {
		l.digest = (l.digest ^ uint64(tag[i])) * fnvPrime
	}
}

// Next is the next seq the lane will decide. The serving front end uses it
// to hold transport-scrambled arrivals until their turn.
func (l *ServeLane) Next() int { return l.next }

// Offered is the number of decisions taken (admitted + shed).
func (l *ServeLane) Offered() uint64 { return l.Admitted + l.Shed }

// Headroom reports how much bound the lane has left at its current backlog:
// negative values mean the next on-time arrival would shed.
func (l *ServeLane) Headroom() sim.Time {
	arrive := sim.Time(l.next) * l.Interval
	wait := l.busy - arrive
	if wait < 0 {
		wait = 0
	}
	return l.Bound - wait
}

// ServeDigest folds per-lane digests order-independently (XOR), so the fold
// is invariant to tenant enumeration order and to how concurrent intake
// interleaved tenants.
func ServeDigest(lanes []*ServeLane) uint64 {
	var h uint64
	for _, l := range lanes {
		h ^= l.digest
	}
	return h
}
