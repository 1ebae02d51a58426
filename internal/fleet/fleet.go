// Package fleet is the control plane over a pool of BLESS devices: where
// internal/cluster places a fixed tenant set once at deployment time, fleet
// runs the pool as a living system — tenants are admitted against live
// per-device load, routed by a pluggable policy on top of the §4.2.2
// placement check, migrated between devices without a service pause (new
// requests flow to the target while the source drains through the graceful
// leave path), rebalanced when load skews, and the pool itself grows and
// shrinks under an autoscaler.
//
// Heterogeneity is physical: each device carries its own sim.Config, and a
// device's SM count is its speed profile — compute kernels scale with SMs up
// to their saturation point, so a 60-SM device genuinely runs slower than a
// 108-SM one and the profiles used for placement are re-derived per device
// class.
//
// Every device runs on one sim.Engine; control-plane decisions (ticks,
// migration triggers, crashes) run on a second, control engine. Run advances
// the device engine in windows that end at barriers, and everything
// cross-device — routing flips, migration drains, crash recovery, control
// ticks, invariant-checker feeding — is applied at those barriers in a
// canonical (time, device, per-device ordinal) order. Control decisions that
// can arrive in any order within one instant (migration triggers) are
// applied in a canonical order, so permuting the trigger order cannot change
// the outcome, and rebalance plans are pure functions of (seed, epoch,
// snapshot). Together these fix the event order the determinism digests pin.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"bless/internal/core"
	"bless/internal/invariant"
	"bless/internal/model"
	"bless/internal/obs"
	"bless/internal/profiler"
	"bless/internal/sharing"
	"bless/internal/sim"
)

// profileCache memoizes offline profiles per (app, device config)
// process-wide for the default profile function. Profiling is deterministic
// and profiles are immutable after construction, so fleets — and repeated
// fleet constructions in tests and benchmarks — can share them;
// re-profiling every admitted tenant dominated admission cost otherwise.
// sim.Config is all scalars, so the composite key is comparable.
var profileCache sync.Map // profileKey -> *profiler.Profile

type profileKey struct {
	app string
	cfg sim.Config
}

func defaultProfile(app string, cfg sim.Config) (*model.App, *profiler.Profile, error) {
	a, err := model.Get(app)
	if err != nil {
		return nil, nil, err
	}
	key := profileKey{app: app, cfg: cfg}
	if p, ok := profileCache.Load(key); ok {
		return a, p.(*profiler.Profile), nil
	}
	p, err := profiler.ProfileApp(a, profiler.Options{Config: cfg})
	if err != nil {
		return nil, nil, err
	}
	actual, _ := profileCache.LoadOrStore(key, p)
	return a, actual.(*profiler.Profile), nil
}

// DeviceSpec describes one device in the pool. The SM count in Config is the
// device's speed profile: fewer SMs means compute kernels (below their
// saturation point) run proportionally slower.
type DeviceSpec struct {
	// Name labels the device ("gpu0", "a100-3", ...).
	Name string
	// Config is the device simulation config (zero = sim.DefaultConfig).
	Config sim.Config
}

// TenantSpec describes one application tenancy.
type TenantSpec struct {
	// Name uniquely identifies the tenant in the fleet ("t042").
	Name string
	// App is the catalog application the tenant runs.
	App string
	// Quota is the provisioned GPU fraction in (0, 1] on whichever device
	// hosts the tenant.
	Quota float64
	// SLOTarget, when non-zero, is the latency target used for pacing and
	// for the SLO-attainment routing policy.
	SLOTarget sim.Time
	// Think is the closed-loop think time between a completion and the
	// tenant's next submission; no submission is scheduled past the horizon.
	Think sim.Time
	// Requests bounds the tenant's closed-loop submissions (0 = keep
	// submitting until the horizon).
	Requests int
}

// ProfileFunc resolves an application and its offline profile for a device
// configuration. The harness passes its process-wide cached resolver; the
// default profiles from scratch per call.
type ProfileFunc func(app string, cfg sim.Config) (*model.App, *profiler.Profile, error)

// Config assembles a fleet.
type Config struct {
	// Seed keys deterministic control-plane decisions (rebalance plans).
	Seed int64
	// Devices is the initial pool.
	Devices []DeviceSpec
	// Runtime tunes every device's BLESS runtime.
	Runtime core.Options
	// InjectorFor, when set, builds a per-device fault injector attached to
	// that device's runtime (overriding Runtime.Injector). Injectors are
	// per-device so each device's fault decisions depend on that device
	// alone.
	InjectorFor func(device int) core.FaultInjector
	// Policy selects the routing policy (default PolicyLeastLoaded).
	Policy Policy
	// Profile resolves per-device-class profiles (default: profile from
	// scratch, uncached).
	Profile ProfileFunc
	// Checker, when set, receives every fleet-level event for invariant
	// verification (no lost/duplicated requests, fleet-wide quota
	// conservation, device capacity).
	Checker *invariant.FleetChecker
	// Rebalance enables the periodic rebalancer (nil = disabled).
	Rebalance *RebalanceConfig
	// Autoscale enables the autoscaler (nil = disabled). Requires Rebalance
	// (the control loop ticks on its interval).
	Autoscale *AutoscaleConfig
	// ExchangeLatency is the cross-device handoff latency ε applied to
	// migration-drain completion notifications (default 100µs virtual). It
	// models the routing-layer hop between a draining source device and the
	// tenant's owner, and bounds every window so no device event can run
	// past a message that would change it.
	ExchangeLatency sim.Time
}

// Stats counts control-plane activity over the fleet's lifetime.
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

// residency is one tenant's presence on one device: a device-local client
// plus the fleet-side accounting mirrored from the runtime's lifecycle.
type residency struct {
	t        *tenant
	dev      *device
	local    int // device-local client ID
	quota    float64
	mem      int64 // placement-time memory estimate
	prof     *profiler.Profile
	client   *sharing.Client
	draining bool // migration source: no new requests, backlog finishing
	pending  int  // requests routed here and not yet completed
}

// tenant is the fleet-side tenant state.
type tenant struct {
	spec    TenantSpec
	host    *residency   // routing target for new requests
	drains  []*residency // migration sources still finishing their backlog
	evicted bool         // no capacity after a crash; tenant is gone
	nextSeq int
	pending map[int]*residency // outstanding seq -> residency it ran on

	completed  int
	failed     int
	order      []int // completion order of seqs (the digest substrate)
	lats       []sim.Time
	latencySum sim.Time
	migrations int

	// timers are the pending closed-loop submit events; they are re-keyed
	// whenever the host flips.
	timers []*workTimer
}

// device is one pool member: a simulated GPU, its BLESS runtime, and the
// obs-backed load registry the routing policies read.
type device struct {
	id       int
	spec     DeviceSpec
	cfg      sim.Config
	gpu      *sim.GPU
	env      *sharing.Env
	rt       *core.Runtime
	bus      *obs.Bus
	reg      *obs.Registry
	slo      *obs.SLOTracker
	deployed bool // core.Runtime deploys with its first resident
	retired  bool // cordoned by the autoscaler: no new placements
	dead     bool // crashed

	outSeq uint64 // per-device exchange-record ordinal (canonical tie-break)
	chkSeq uint64 // per-device checker-event ordinal (canonical tie-break)

	nextLocal int
	residents map[int]*residency // local ID -> residency (live and draining)
	quota     float64            // subscribed quota, draining residents included
	mem       int64              // subscribed memory estimate
	inflight  int
	completed int64
	failed    int64
	sloOK     int64
	sloMiss   int64
}

// Fleet is a running control plane. Not safe for concurrent use; like the
// engines it drives, a fleet is single-threaded within one simulation.
type Fleet struct {
	eng     *sim.Engine // every device's engine
	ctrl    *sim.Engine // control-plane engine: ticks, triggers, crashes
	cfg     Config
	policy  Policy
	profile ProfileFunc
	checker *invariant.FleetChecker
	arena   sharing.RequestArena // chunked request allocation

	// Run state. The exchange inbox, drain count and window bookkeeping are
	// only touched at barriers.
	eps     sim.Time // exchange latency ε, the windows' lookahead bound
	horizon sim.Time
	began   bool       // Begin ran: timers armed, control ticks scheduled
	window  sim.Time   // start of the current window (last barrier)
	inbox   []drainRec // pending drain deliveries, (deliver, dev, seq) order
	outbox  []drainRec // drain records produced this window
	chk     []chkRec   // checker events produced this window

	drainCount int // live migration-drain residencies fleet-wide

	devices []*device
	tenants map[string]*tenant
	names   []string // admission order, for deterministic iteration

	moves      []move // migration triggers collected this instant
	movesArmed bool

	epoch          int64
	shortfallTicks int
	churned        bool // crash since last tick: rebalance regardless

	stats Stats
}

// New assembles the pool and its per-device runtimes. Admit tenants, then
// drive the run with Run (or Begin and RunTo).
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("fleet: need at least one device")
	}
	if cfg.Autoscale != nil && cfg.Rebalance == nil {
		return nil, fmt.Errorf("fleet: Autoscale requires Rebalance (the control loop ticks on its interval)")
	}
	f := &Fleet{
		eng:     sim.NewEngine(),
		ctrl:    sim.NewEngine(),
		cfg:     cfg,
		policy:  cfg.Policy,
		profile: cfg.Profile,
		checker: cfg.Checker,
		eps:     cfg.ExchangeLatency,
		tenants: make(map[string]*tenant),
	}
	if f.policy == "" {
		f.policy = PolicyLeastLoaded
	}
	if _, err := policyRank(f.policy); err != nil {
		return nil, err
	}
	if f.profile == nil {
		f.profile = defaultProfile
	}
	if f.eps <= 0 {
		f.eps = DefaultExchangeLatency
	}
	for _, spec := range cfg.Devices {
		if _, err := f.AddDevice(spec); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// NewSharded is New under its former name.
//
// Deprecated: use New.
func NewSharded(cfg Config) (*Fleet, error) { return New(cfg) }

// now is the control-plane clock. Only valid at barriers.
func (f *Fleet) now() sim.Time { return f.ctrl.Now() }

// AddDevice grows the pool by one device and returns its index. The device's
// runtime deploys lazily with its first resident.
func (f *Fleet) AddDevice(spec DeviceSpec) (int, error) {
	cfg := spec.Config
	if cfg.SMs == 0 {
		cfg = sim.DefaultConfig()
	}
	if err := cfg.Validate(); err != nil {
		return 0, fmt.Errorf("fleet: device %q: %w", spec.Name, err)
	}
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("gpu%d", len(f.devices))
	}
	opts := f.cfg.Runtime
	if f.cfg.InjectorFor != nil {
		opts.Injector = f.cfg.InjectorFor(len(f.devices))
	}
	d := &device{
		id:        len(f.devices),
		spec:      spec,
		cfg:       cfg,
		gpu:       sim.NewGPU(f.eng, cfg),
		rt:        core.New(opts),
		bus:       obs.NewBus(),
		reg:       obs.NewRegistry(),
		slo:       obs.NewSLOTracker(),
		residents: make(map[int]*residency),
	}
	d.env = &sharing.Env{Eng: f.eng, GPU: d.gpu}
	// The obs signals are the device's load registry: request counters and
	// the latency histogram stream in from the runtime's decision bus.
	reg := d.reg
	d.bus.Subscribe(obs.SubscriberFunc(func(ev obs.Event) {
		switch ev.Kind {
		case obs.KindRequestAdmitted:
			reg.Counter("requests/admitted_total").Inc()
		case obs.KindRequestDone:
			if ev.Reason == "failed" {
				reg.Counter("requests/failed_total").Inc()
			} else {
				reg.Counter("requests/completed_total").Inc()
				reg.Histogram("latency/request_ns").Observe(ev.Actual)
			}
		case obs.KindClientJoin:
			reg.Counter("clients/joined_total").Inc()
		case obs.KindClientLeave:
			reg.Counter("clients/left_total").Inc()
		case obs.KindClientCrash:
			reg.Counter("clients/crashed_total").Inc()
		}
	}))
	d.rt.Observe(d.bus)
	dev := d
	d.env.OnComplete = func(r *sharing.Request) { f.completed(dev, r) }
	f.devices = append(f.devices, d)
	if f.checker != nil {
		f.checker.DeviceAdded(f.now(), d.id, cfg.SMs)
	}
	return d.id, nil
}

// Admit places a new tenant on the device the routing policy picks and
// starts it. Admission fails when no live device passes the §4.2.2 placement
// check for the tenant.
func (f *Fleet) Admit(spec TenantSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("fleet: tenant needs a name")
	}
	if _, ok := f.tenants[spec.Name]; ok {
		return fmt.Errorf("fleet: tenant %q already admitted", spec.Name)
	}
	if spec.Quota <= 0 || spec.Quota > 1 {
		return fmt.Errorf("fleet: tenant %q quota %g outside (0,1]", spec.Name, spec.Quota)
	}
	t := &tenant{spec: spec, pending: make(map[int]*residency)}
	dev, err := f.route(t, -1)
	if err != nil {
		f.stats.AdmitRejected++
		return fmt.Errorf("fleet: admitting %q: %w", spec.Name, err)
	}
	res, err := f.place(t, dev)
	if err != nil {
		f.stats.AdmitRejected++
		return fmt.Errorf("fleet: admitting %q: %w", spec.Name, err)
	}
	t.host = res
	f.tenants[spec.Name] = t
	f.names = append(f.names, spec.Name)
	f.stats.Admitted++
	return nil
}

// AdmitBatch admits a batch of tenants in one admission pass — the
// batch-admission entry point the serving front end uses to open a tenant
// set without per-tenant control-plane round-trips. The whole batch is
// pre-validated first (names, quotas, duplicates — including duplicates
// within the batch), so a malformed batch is rejected atomically before any
// tenant lands; placement then proceeds in batch order and stops at the
// first tenant the pool cannot host, reporting how many were admitted.
// Placement is load-aware per admission, so earlier tenants in the batch
// influence later routing exactly as sequential Admit calls would — the
// batch is a performance shape, not a different policy.
func (f *Fleet) AdmitBatch(specs []TenantSpec) (admitted int, err error) {
	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		if spec.Name == "" {
			return 0, fmt.Errorf("fleet: batch tenant needs a name")
		}
		if seen[spec.Name] {
			return 0, fmt.Errorf("fleet: batch admits tenant %q twice", spec.Name)
		}
		seen[spec.Name] = true
		if _, ok := f.tenants[spec.Name]; ok {
			return 0, fmt.Errorf("fleet: tenant %q already admitted", spec.Name)
		}
		if spec.Quota <= 0 || spec.Quota > 1 {
			return 0, fmt.Errorf("fleet: tenant %q quota %g outside (0,1]", spec.Name, spec.Quota)
		}
	}
	for i, spec := range specs {
		if err := f.Admit(spec); err != nil {
			return i, fmt.Errorf("fleet: batch admission stopped at %d/%d: %w", i, len(specs), err)
		}
	}
	return len(specs), nil
}

// place creates a residency for the tenant on the device: the device-class
// profile is resolved, the local client built on the next dense slot, and
// the runtime deployed (first resident) or joined mid-run (sharing.Dynamic).
func (f *Fleet) place(t *tenant, dev *device) (*residency, error) {
	app, prof, err := f.profile(t.spec.App, dev.cfg)
	if err != nil {
		return nil, err
	}
	c := &sharing.Client{
		ID:        dev.nextLocal,
		App:       app,
		Profile:   prof,
		Quota:     t.spec.Quota,
		SLOTarget: t.spec.SLOTarget,
	}
	if !dev.deployed {
		dev.env.Clients = []*sharing.Client{c}
		if err := dev.rt.Deploy(dev.env); err != nil {
			dev.env.Clients = nil
			return nil, fmt.Errorf("device %s: %w", dev.spec.Name, err)
		}
		dev.deployed = true
	} else {
		if err := dev.rt.AddClient(c); err != nil {
			return nil, fmt.Errorf("device %s: %w", dev.spec.Name, err)
		}
	}
	lim := profiler.DefaultAdmissionLimits()
	res := &residency{
		t:      t,
		dev:    dev,
		local:  c.ID,
		quota:  t.spec.Quota,
		mem:    prof.MemoryBytes + int64(lim.ContextsPerClient)*dev.cfg.ContextMemBytes,
		prof:   prof,
		client: c,
	}
	dev.nextLocal++
	dev.residents[res.local] = res
	dev.quota += res.quota
	dev.mem += res.mem
	dev.slo.SetTarget(t.spec.Name, t.spec.SLOTarget)
	if f.checker != nil {
		f.checker.TenantAdmitted(f.now(), t.spec.Name, dev.id, res.quota)
	}
	return res, nil
}

// Submit routes the tenant's next request to its current host device at the
// current virtual time and returns the request handle.
func (f *Fleet) Submit(name string) (*sharing.Request, error) {
	t, ok := f.tenants[name]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown tenant %q", name)
	}
	return f.submit(t)
}

// submit issues the tenant's next request on its host device, from a
// closed-loop timer or at a barrier.
func (f *Fleet) submit(t *tenant) (*sharing.Request, error) {
	if t.evicted {
		return nil, fmt.Errorf("fleet: tenant %q was evicted", t.spec.Name)
	}
	seq := t.nextSeq
	t.nextSeq++
	res := t.host
	now := f.eng.Now()
	r := f.arena.New(res.client, seq, now)
	res.dev.rt.Submit(r)
	t.pending[seq] = res
	res.pending++
	res.dev.inflight++
	f.stats.Routed++
	f.note(now, res.dev, chkRouted, t, seq, false)
	return r, nil
}

// completed is every device's env.OnComplete: it settles the device-local
// request accounting and feeds the SLO tracker. Completions of live (owner)
// residencies settle the tenant-side accounting in place; completions of
// draining migration sources instead emit an exchange record delivered to
// the owner ε later at a barrier.
func (f *Fleet) completed(dev *device, r *sharing.Request) {
	res, ok := dev.residents[r.Client.ID]
	if !ok {
		return // completion for an already-released residency: impossible by construction
	}
	t := res.t
	lat := r.Latency()
	res.pending--
	dev.inflight--
	if r.Failed {
		dev.failed++
	} else {
		dev.completed++
	}
	if t.spec.SLOTarget > 0 {
		if !r.Failed && lat <= t.spec.SLOTarget {
			dev.sloOK++
		} else {
			dev.sloMiss++
		}
	}
	dev.slo.Observe(t.spec.Name, t.spec.SLOTarget, lat, r.Failed)
	if res.draining {
		drained := res.pending == 0
		if drained {
			f.finishDrainLocal(res, r.Done)
		}
		f.outbox = append(f.outbox, drainRec{
			deliver: r.Done + f.eps, at: r.Done,
			dev: dev.id, seq: dev.outSeq,
			res: res, rseq: r.Seq, failed: r.Failed, lat: lat,
			drained: drained,
		})
		dev.outSeq++
		return
	}
	delete(t.pending, r.Seq)
	if r.Failed {
		t.failed++
		f.stats.Failed++
	} else {
		t.completed++
		f.stats.Completed++
		t.latencySum += lat
		t.lats = append(t.lats, lat)
	}
	t.order = append(t.order, r.Seq)
	f.note(r.Done, dev, chkCompleted, t, r.Seq, r.Failed)
	f.scheduleNext(t, r.Seq, r.Done, 0)
}

// finishDrain retires a migration-source residency whose backlog has
// finished: the runtime has released the client (graceful-leave semantics),
// so the fleet-side subscription drops with it. Barriers only; drains that
// finish inside a window go through finishDrainLocal.
func (f *Fleet) finishDrain(res *residency) {
	dev, t := res.dev, res.t
	delete(dev.residents, res.local)
	dev.quota -= res.quota
	dev.mem -= res.mem
	f.removeDrain(t, res)
	f.stats.MigrationsCompleted++
	if f.checker != nil {
		f.checker.TenantReleased(f.now(), t.spec.Name, dev.id)
	}
}

// removeDrain unlinks a drain residency from its tenant (no-op when the
// residency is not in the drain list) and settles the fleet-wide count.
func (f *Fleet) removeDrain(t *tenant, res *residency) {
	for i, d := range t.drains {
		if d == res {
			t.drains = append(t.drains[:i], t.drains[i+1:]...)
			f.drainCount--
			return
		}
	}
}

// Stats returns the control-plane counters.
func (f *Fleet) Stats() Stats { return f.stats }

// Devices returns the pool size, retired and crashed devices included.
func (f *Fleet) Devices() int { return len(f.devices) }

// Elapsed reports the fleet's virtual time: the later of the device and
// control clocks.
func (f *Fleet) Elapsed() sim.Time { return max(f.eng.Now(), f.ctrl.Now()) }

// TenantResult is one tenant's final outcome.
type TenantResult struct {
	Name       string
	App        string
	Quota      float64
	Device     int // final host (-1 if evicted)
	Completed  int
	Failed     int
	MeanLat    sim.Time
	Latencies  []sim.Time // successful-request latencies, completion order
	Migrations int
	Evicted    bool
}

// Results returns every tenant's outcome in admission order.
func (f *Fleet) Results() []TenantResult {
	out := make([]TenantResult, 0, len(f.names))
	for _, name := range f.names {
		t := f.tenants[name]
		tr := TenantResult{
			Name:       name,
			App:        t.spec.App,
			Quota:      t.spec.Quota,
			Device:     -1,
			Completed:  t.completed,
			Failed:     t.failed,
			Latencies:  t.lats,
			Migrations: t.migrations,
			Evicted:    t.evicted,
		}
		if !t.evicted && t.host != nil {
			tr.Device = t.host.dev.id
		}
		if t.completed > 0 {
			tr.MeanLat = t.latencySum / sim.Time(t.completed)
		}
		out = append(out, tr)
	}
	return out
}

// CompletionDigest folds every tenant's outcome — app, completion order,
// failure count, eviction — into one timing-free FNV-1a digest. Two runs of
// the same scenario must match bit-for-bit regardless of which worker runs
// them or of the order same-instant migration triggers arrived in.
func (f *Fleet) CompletionDigest() uint64 {
	h := fnv.New64a()
	names := append([]string(nil), f.names...)
	sort.Strings(names)
	var buf [8]byte
	wInt := func(v int) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, name := range names {
		t := f.tenants[name]
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write([]byte(t.spec.App))
		h.Write([]byte{0})
		wInt(t.completed)
		wInt(t.failed)
		wInt(t.migrations)
		if t.evicted {
			wInt(1)
		} else {
			wInt(0)
		}
		wInt(len(t.order))
		for _, seq := range t.order {
			wInt(seq)
		}
	}
	return h.Sum64()
}
