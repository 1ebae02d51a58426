package main

import (
	"fmt"
	"runtime"
	"time"

	"bless/internal/core"
	"bless/internal/harness"
	"bless/internal/invariant"
	"bless/internal/metrics"
	"bless/internal/model"
	"bless/internal/obs"
	"bless/internal/profiler"
	"bless/internal/sharing"
	"bless/internal/sim"
	"bless/internal/trace"
)

// colocatePinned is harness.CompletionDigest of the full-scale colocate
// round at defaultSeed.
const colocatePinned = "57b761538641380d"

// The colocate mix varies kernel count and duration: nasnet has 458 short
// kernels, bert 382 tensor-core kernels, resnet50 80 and vgg11 31.
var colocateApps = []string{"nasnet", "bert", "resnet50", "vgg11"}

const (
	colocateQuota = 0.25
	// colocateLoad is each tenant's Poisson rate as a share of its ISO
	// capacity (one request per IsoAtQuota).
	colocateLoad = 0.6
)

// colocateClients builds the seeded tenant set.
func colocateClients(seed int64, horizon sim.Time) ([]harness.ClientSpec, error) {
	specs := make([]harness.ClientSpec, len(colocateApps))
	for i, app := range colocateApps {
		prof, err := harness.ProfileFor(app, sim.DefaultConfig())
		if err != nil {
			return nil, err
		}
		rate := colocateLoad * float64(sim.Second) / float64(prof.IsoAtQuota(colocateQuota))
		specs[i] = harness.ClientSpec{
			App:     app,
			Quota:   colocateQuota,
			Pattern: trace.Poisson(rate, horizon, seed*16+int64(i)),
		}
	}
	return specs, nil
}

// coldProfiles profiles every app on every device config without the
// harness's profile cache, as a first deployment would.
func coldProfiles(tr *tracer, parent int, apps []string, cfgs []sim.Config) (map[string]*profiler.Profile, error) {
	out := map[string]*profiler.Profile{}
	for _, cfg := range cfgs {
		for _, name := range apps {
			sp := tr.begin("profiler.ProfileApp", parent)
			app, err := model.Get(name)
			if err != nil {
				return nil, err
			}
			p, err := profiler.ProfileApp(app, profiler.Options{Config: cfg})
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			out[fmt.Sprintf("%s/%d", name, cfg.SMs)] = p
		}
	}
	return out, nil
}

// kernelCounter is the traced run's kernel-counting sim.Tracer.
type kernelCounter struct{ n int64 }

func (k *kernelCounter) KernelStart(sim.Time, *sim.Queue, *sim.Kernel) {}

func (k *kernelCounter) KernelEnd(sim.Time, *sim.Queue, *sim.Kernel, float64) { k.n++ }

func colocateRound(cfg *config, seed int64, tr *tracer) (*round, error) {
	root := tr.begin("colocate.round", 0)
	defer tr.end(root)
	horizon := sim.Time(cfg.scale.colocateHorizonS * float64(sim.Second))
	specs, err := colocateClients(seed, horizon)
	if err != nil {
		return nil, err
	}
	r := &round{sim: map[string]float64{}, host: map[string]float64{}, layer: map[string]float64{}}

	// Set-up: cold profiles, then a deployment onto a fresh device.
	gpuCfg := sim.DefaultConfig()
	start := time.Now()
	sp := tr.begin("setup", root)
	profs, err := coldProfiles(tr, sp, colocateApps, []sim.Config{gpuCfg})
	if err != nil {
		return nil, err
	}
	profiled := time.Since(start)
	dep := tr.begin("core.Deploy", sp)
	eng := sim.NewEngine()
	env := &sharing.Env{Eng: eng, GPU: sim.NewGPU(eng, gpuCfg)}
	for i, s := range specs {
		app, err := model.Get(s.App)
		if err != nil {
			return nil, err
		}
		env.Clients = append(env.Clients, &sharing.Client{
			ID: i, App: app, Profile: profs[fmt.Sprintf("%s/%d", s.App, gpuCfg.SMs)], Quota: s.Quota,
		})
	}
	if err := core.New(core.DefaultOptions()).Deploy(env); err != nil {
		return nil, err
	}
	tr.end(dep)
	tr.end(sp)
	r.setup = time.Since(start)
	r.layer["profiler.profiles"] = float64(len(profs))
	r.layer["profiler.ms_per_profile"] = float64(profiled.Microseconds()) / 1e3 / float64(len(profs))

	// The measured work.
	rt := core.New(core.DefaultOptions())
	run := harness.RunConfig{Scheduler: rt, Clients: specs, Horizon: horizon}
	var kc *kernelCounter
	var bus *obs.Bus
	if tr.instrumented() {
		kc = &kernelCounter{}
		bus = obs.NewBus()
		bus.SelfAccount(true)
		bus.Subscribe(obs.SubscriberFunc(func(obs.Event) {}))
		run.Tracer, run.Bus, run.Invariants = kc, bus, &invariant.Options{}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp = tr.begin("harness.Run", root)
	if err := tr.startProfile(); err != nil {
		return nil, err
	}
	cpu0, t0 := cpuTime(), time.Now()
	res, err := harness.Run(run)
	r.wall, r.cpu = time.Since(t0), cpuTime()-cpu0
	if err := tr.stopProfile(); err != nil {
		return nil, err
	}
	tr.end(sp)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}

	var all []sim.Time
	var latRatio, p99Ratio float64
	for _, c := range res.PerClient {
		r.attempted += int64(c.Submitted)
		r.reqs += int64(c.Completed)
		all = append(all, c.Latencies...)
		latRatio += float64(c.Summary.Mean) / float64(c.ISO)
		p99Ratio = max(p99Ratio, float64(c.Summary.P99)/float64(c.ISO))
	}
	r.failed = r.attempted - r.reqs
	r.digest = fmt.Sprintf("%016x", harness.CompletionDigest(res))
	sum := metrics.Summarize(all)
	r.sim["p50_us"] = float64(sum.P50) / 1e3
	r.sim["p99_us"] = float64(sum.P99) / 1e3
	r.sim["lat_vs_iso"] = latRatio / float64(len(res.PerClient))
	r.sim["p99_vs_iso"] = p99Ratio
	r.sim["sm_util"] = res.Utilization
	r.sim["done_frac"] = float64(r.reqs) / float64(r.attempted)
	r.sim["admit_frac"] = float64(len(res.PerClient)) / float64(len(specs))

	st := rt.Stats()
	var switches int64
	for _, o := range rt.OverheadStats() {
		switches += o.Switches
	}
	squads := float64(st.SquadsExecuted)
	r.layer["core.squads"] = squads
	r.layer["core.kernels_per_squad"] = float64(st.KernelsScheduled) / squads
	r.layer["core.configs_per_squad"] = float64(st.ConfigsEvaluated) / squads
	r.layer["core.spatial_frac"] = float64(st.SpatialSquads) / squads
	r.layer["core.switches"] = float64(switches)
	r.layer["go.allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(r.reqs)
	r.layer["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	if kc != nil {
		r.layer["sim.kernels"] = float64(kc.n)
		cost := bus.Cost()
		r.layer["obs.events"] = float64(cost.Events)
		if cost.Events > 0 {
			r.layer["obs.publish_ns_per_event"] = float64(cost.WallNS) / float64(cost.Events)
		}
		rep := res.Invariants
		if rep == nil {
			return nil, fmt.Errorf("instrumented round ran without the invariant checker")
		}
		r.layer["invariant.events"] = float64(rep.Kernels + rep.Samples + rep.Events)
		r.layer["invariant.violations"] = float64(len(rep.Violations))
		for _, v := range rep.Violations {
			r.problems = append(r.problems, "invariant: "+v.Error())
		}
	}
	return r, nil
}
