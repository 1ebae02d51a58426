package planner

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"encoding/json"

	"bless/internal/core"
	"bless/internal/harness"
	"bless/internal/invariant"
	"bless/internal/metrics"
	"bless/internal/obs"
	"bless/internal/serveapi"
	"bless/internal/sim"
)

// The sustained-load serving front end: where Plan answers one what-if
// question per RPC, the Serve* surface keeps a deployment open and decides
// admission per request at line rate.
//
// Each Serve call decides its own request inline: it takes its tenant's
// lock and runs core.ServeLane.Decide. Decisions are pure functions of
// per-tenant state and the client-stamped seq, so any interleaving across
// tenants — serial or concurrent — produces bit-identical per-tenant
// digests; the cross-tenant fold (core.ServeDigest) is an XOR, insensitive
// to tenant order. That is what the serial-vs-concurrent digest gate in CI
// compares.
//
// net/rpc serves each call on its own goroutine, so a pipelining client's
// seq k+1 can arrive before seq k. A call ahead of its lane's cursor parks
// on the tenant's condition variable until the cursor reaches it; that is
// the whole reorder buffer, bounded by maxServeAhead at the RPC edge.
//
// Backpressure is per-tenant shedding: a request whose virtual queueing
// delay behind its lane exceeds the tenant's bound is rejected with a
// retry-after keyed on how far the lane overran — overloaded tenants shed
// their own excess, in-quota tenants never shed. No decision depends on
// wall-clock timing.
//
// The steady-state fast path allocates nothing (BenchmarkServeSteadyState
// gates allocs/op exactly).

// The wire types live in internal/serveapi so RPC clients outside this
// internal tree (cmd/blessload) share them; aliased here to keep the
// planner's RPC surface self-describing.
type (
	// ServeTenant declares one tenant of an open serving deployment.
	ServeTenant = serveapi.ServeTenant
	// ServeOpenRequest opens a serving deployment.
	ServeOpenRequest = serveapi.ServeOpenRequest
	// ServeTenantInfo reports one tenant's derived admission parameters.
	ServeTenantInfo = serveapi.ServeTenantInfo
	// ServeOpenReply reports the opened deployment.
	ServeOpenReply = serveapi.ServeOpenReply
	// ServeRequest is one admission request (per-tenant seq order).
	ServeRequest = serveapi.ServeRequest
	// ServeReply is the admission decision.
	ServeReply = serveapi.ServeReply
	// ServeTenantStats is one tenant's accounting in ServeStatsReply.
	ServeTenantStats = serveapi.ServeTenantStats
	// ServeStatsReply is the open deployment's accounting.
	ServeStatsReply = serveapi.ServeStatsReply
	// ServeCloseReply carries the final stats of the closed deployment.
	ServeCloseReply = serveapi.ServeCloseReply
)

// maxServeAhead caps how far past its lane's cursor a request's seq may be.
// Each parked call holds a goroutine until the gap fills or the deployment
// closes, so a client must not park unboundedly many. The cap sits far
// above any in-repo pipelining window (blessload's default is 8 in flight
// per tenant).
const maxServeAhead = 1024

// serveTenantState is one tenant's lane plus its accounting. Everything
// below mu is guarded by it; cond (bound to mu) parks calls that arrived
// ahead of the lane's cursor.
type serveTenantState struct {
	name string

	mu   sync.Mutex
	cond sync.Cond
	lane *core.ServeLane
	// parked counts calls waiting on cond, so the in-order steady state
	// never broadcasts.
	parked int
	// closed is set by ServeClose: parked and late calls fail instead of
	// waiting for a gap that will never fill.
	closed    bool
	wait      metrics.Digest
	decNS     int64
	decisions uint64
}

// serveState is one open deployment.
type serveState struct {
	tenants []*serveTenantState
	byName  map[string]*serveTenantState
	// inflight tracks Serve calls past the open-deployment gate so close can
	// drain before failing parked calls.
	inflight atomic.Int64
	budgetNS int64

	// cached registry instruments (resolving by name is a map+lock).
	cOffered, cAdmitted, cShed, cAhead *obs.Counter
	hWait                              *obs.Histogram
}

// ServeOpen opens a serving deployment: profiles the tenants, runs the
// §4.2.2 placement admission pass over the pool (the whole tenant set as
// one batch — offered load beyond what places bubble-free is rejected
// here), and builds the per-tenant admission lanes.
func (p *Planner) ServeOpen(req ServeOpenRequest, reply *ServeOpenReply) error {
	if len(req.Tenants) == 0 {
		return fmt.Errorf("serve: no tenants")
	}
	gpus := req.GPUs
	if gpus <= 0 {
		gpus = 1
	}
	cfg := sim.DefaultConfig()
	if req.GPUSMs > 0 {
		cfg.SMs = req.GPUSMs
	}

	// Placement admission: every tenant must place bubble-free on the pool
	// before the deployment opens — quota headroom is established here, and
	// per-request shedding keys on the per-tenant lanes it implies.
	apps := make([]core.PlacementApp, len(req.Tenants))
	lanes := make([]*core.ServeLane, len(req.Tenants))
	kernels := make([]int, len(req.Tenants))
	for i, t := range req.Tenants {
		if t.Name == "" {
			return fmt.Errorf("serve: tenant %d needs a name", i)
		}
		if t.RateRPS <= 0 {
			return fmt.Errorf("serve: tenant %q needs a positive RateRPS", t.Name)
		}
		prof, err := harness.ProfileFor(t.App, cfg)
		if err != nil {
			return fmt.Errorf("serve: tenant %q: %w", t.Name, err)
		}
		apps[i] = core.PlacementApp{Name: t.Name, Profile: prof, Quota: t.Quota}
		service := prof.IsoAtQuota(t.Quota)
		interval := sim.Time(float64(sim.Second) / t.RateRPS)
		bound := ms(t.BoundMS)
		if bound <= 0 {
			bound = 4 * service
		}
		lane, err := core.NewServeLane(interval, service, bound)
		if err != nil {
			return fmt.Errorf("serve: tenant %q: %w", t.Name, err)
		}
		// Seed by name so same-parameter tenants cannot cancel in the fold.
		lane.SeedDigest(t.Name)
		lanes[i] = lane
		kernels[i] = prof.NumKernels()
	}
	pool := make([]core.PlacementGPU, gpus)
	for i := range pool {
		pool[i] = core.PlacementGPU{ID: fmt.Sprintf("gpu%d", i), Config: cfg}
	}
	placement, err := core.Place(apps, pool, core.PlacementOptions{})
	if err != nil {
		p.reg.Counter("serve/open_rejected_total").Inc()
		return fmt.Errorf("serve: placement admission failed: %w", err)
	}

	st := &serveState{
		byName:    make(map[string]*serveTenantState, len(req.Tenants)),
		cOffered:  p.reg.Counter("serve/offered_total"),
		cAdmitted: p.reg.Counter("serve/admitted_total"),
		cShed:     p.reg.Counter("serve/shed_total"),
		cAhead:    p.reg.Counter("serve/seq_ahead_rejected_total"),
		hWait:     p.reg.Histogram("serve/wait_virtual_ns"),
	}
	var kernelSum int64
	for i, t := range req.Tenants {
		if _, dup := st.byName[t.Name]; dup {
			return fmt.Errorf("serve: duplicate tenant %q", t.Name)
		}
		ts := &serveTenantState{name: t.Name, lane: lanes[i]}
		ts.cond.L = &ts.mu
		st.tenants = append(st.tenants, ts)
		st.byName[t.Name] = ts
		kernelSum += int64(kernels[i])
		reply.Tenants = append(reply.Tenants, ServeTenantInfo{
			Name:       t.Name,
			Device:     placement[i],
			IntervalNS: int64(lanes[i].Interval),
			ServiceNS:  int64(lanes[i].Service),
			BoundNS:    int64(lanes[i].Bound),
		})
	}
	// §6.9 per-request budget: SchedPerKernel x mean kernels per request.
	st.budgetNS = 6700 * kernelSum / int64(len(req.Tenants))

	p.mu.Lock()
	if p.serve.Load() != nil {
		p.mu.Unlock()
		return fmt.Errorf("serve: deployment already open (call ServeClose first)")
	}
	p.serve.Store(st)
	p.mu.Unlock()

	reply.GPUs = gpus
	p.reg.Counter("serve/opens_total").Inc()
	return nil
}

// Serve decides one request under its tenant's lock. A call ahead of the
// lane's cursor parks until the cursor reaches its seq, so decisions still
// execute in strict per-tenant seq order and reordering in flight cannot
// change any decision or digest. The fast path allocates nothing.
func (p *Planner) Serve(req ServeRequest, reply *ServeReply) error {
	st := p.serve.Load()
	if st == nil {
		return errServeClosed
	}
	t := st.byName[req.Tenant]
	if t == nil {
		return fmt.Errorf("serve: unknown tenant %q", req.Tenant)
	}
	st.inflight.Add(1)
	defer st.inflight.Add(-1)

	var dec core.ServeDecision
	t.mu.Lock()
	if next := t.lane.Next(); req.Seq > next+maxServeAhead {
		t.mu.Unlock()
		st.cAhead.Inc()
		return fmt.Errorf("serve: tenant %q seq %d is more than %d ahead of the cursor (at %d)", t.name, req.Seq, maxServeAhead, next)
	}
	for req.Seq > t.lane.Next() && !t.closed {
		t.parked++
		t.cond.Wait()
		t.parked--
	}
	if t.closed {
		t.mu.Unlock()
		return errServeClosed
	}
	if next := t.lane.Next(); req.Seq < next {
		// Stale seq: already decided once — a client bug, surfaced as an
		// error, never a second decision.
		t.mu.Unlock()
		return fmt.Errorf("serve: tenant %q seq %d already decided (cursor at %d)", t.name, req.Seq, next)
	}
	t0 := time.Now()
	t.lane.Decide(req.Seq, &dec)
	t.decNS += int64(time.Since(t0))
	t.decisions++
	if dec.Admitted {
		t.wait.Observe(dec.Wait)
	}
	if t.parked > 0 {
		t.cond.Broadcast()
	}
	t.mu.Unlock()

	st.cOffered.Inc()
	if dec.Admitted {
		st.cAdmitted.Inc()
		st.hWait.Observe(dec.Wait)
	} else {
		st.cShed.Inc()
	}
	reply.Seq = dec.Seq
	reply.Admitted = dec.Admitted
	reply.WaitNS = int64(dec.Wait)
	reply.ServiceNS = int64(dec.Service)
	reply.RetryAfterNS = int64(dec.RetryAfter)
	return nil
}

var errServeClosed = fmt.Errorf("serve: no open deployment (call ServeOpen first)")

// serveDrainDeadline bounds how long ServeClose waits for in-flight requests
// before failing parked calls with an error (overridden in tests).
var serveDrainDeadline = 5 * time.Second

// ServeStats reports the open deployment's accounting without disturbing
// intake.
func (p *Planner) ServeStats(_ struct{}, reply *ServeStatsReply) error {
	st := p.serve.Load()
	if st == nil {
		return errServeClosed
	}
	st.fill(reply, true)
	return nil
}

// fill computes the stats reply from the tenants' lanes and accounting.
func (st *serveState) fill(reply *ServeStatsReply, open bool) {
	reply.Open = open
	var wait metrics.Digest
	var decNS int64
	var decisions uint64
	lanes := make([]*core.ServeLane, len(st.tenants))
	checks := make([]invariant.ServeLaneStats, len(st.tenants))
	for i, t := range st.tenants {
		t.mu.Lock()
		wait.Merge(&t.wait)
		decNS += t.decNS
		decisions += t.decisions
		lanes[i] = t.lane
		offered := t.lane.Offered()
		reply.PerTenant = append(reply.PerTenant, ServeTenantStats{
			Name:       t.name,
			Offered:    offered,
			Admitted:   t.lane.Admitted,
			Shed:       t.lane.Shed,
			Digest:     fmt.Sprintf("%016x", t.lane.Digest()),
			HeadroomNS: int64(t.lane.Headroom()),
		})
		checks[i] = invariant.ServeLaneStats{
			Tenant:   t.name,
			Interval: t.lane.Interval,
			Service:  t.lane.Service,
			Bound:    t.lane.Bound,
			Offered:  offered,
			Admitted: t.lane.Admitted,
			Shed:     t.lane.Shed,
			NextSeq:  int(offered),
		}
		reply.Offered += offered
		reply.Admitted += t.lane.Admitted
		reply.Shed += t.lane.Shed
		t.mu.Unlock()
	}
	reply.Batches = decisions
	if decisions > 0 {
		reply.BatchMeanSize = 1
	}
	reply.Digest = fmt.Sprintf("%016x", core.ServeDigest(lanes))
	sum := wait.Summary()
	reply.WaitMeanNS = int64(sum.Mean)
	reply.WaitP50NS = int64(sum.P50)
	reply.WaitP99NS = int64(sum.P99)
	if decisions > 0 {
		reply.DecisionMeanNS = float64(decNS) / float64(decisions)
	}
	reply.BudgetNS = st.budgetNS
	reply.WithinBudget = reply.DecisionMeanNS <= float64(st.budgetNS)
	for _, v := range invariant.CheckServe(checks) {
		reply.Violations = append(reply.Violations, v.Msg)
	}
}

// ServeClose drains in-flight requests, fails whatever is still parked, and
// returns the final stats.
func (p *Planner) ServeClose(_ struct{}, reply *ServeCloseReply) error {
	p.mu.Lock()
	st := p.serve.Load()
	if st == nil {
		p.mu.Unlock()
		return errServeClosed
	}
	p.serve.Store(nil)
	p.mu.Unlock()
	// New Serve calls now reject; wait out the ones already past the gate.
	// A bounded wait: a client that abandoned a pipeline mid-stream can
	// leave a seq gap whose parked successors never decide — after the
	// deadline every tenant closes and its parked calls fail.
	deadline := time.Now().Add(serveDrainDeadline)
	for st.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
	for _, t := range st.tenants {
		t.mu.Lock()
		t.closed = true
		t.cond.Broadcast()
		t.mu.Unlock()
	}
	for st.inflight.Load() > 0 {
		time.Sleep(50 * time.Microsecond)
	}
	st.fill(&reply.Stats, false)
	p.reg.Counter("serve/closes_total").Inc()
	return nil
}

// ServeServe handles GET /debug/bless/serve: the open deployment's live
// stats as JSON. 404 when no deployment is open.
func (p *Planner) ServeServe(w http.ResponseWriter, _ *http.Request) {
	st := p.serve.Load()
	if st == nil {
		http.Error(w, "no serving deployment open; call Planner.ServeOpen first", http.StatusNotFound)
		return
	}
	var stats ServeStatsReply
	st.fill(&stats, true)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"stats": stats})
}

// RPC forwarding (see PlanService).

// ServeOpen forwards to Planner.ServeOpen.
func (s *PlanService) ServeOpen(req ServeOpenRequest, reply *ServeOpenReply) error {
	return s.p.ServeOpen(req, reply)
}

// Serve forwards to Planner.Serve.
func (s *PlanService) Serve(req ServeRequest, reply *ServeReply) error { return s.p.Serve(req, reply) }

// ServeStats forwards to Planner.ServeStats.
func (s *PlanService) ServeStats(req struct{}, reply *ServeStatsReply) error {
	return s.p.ServeStats(req, reply)
}

// ServeClose forwards to Planner.ServeClose.
func (s *PlanService) ServeClose(req struct{}, reply *ServeCloseReply) error {
	return s.p.ServeClose(req, reply)
}
