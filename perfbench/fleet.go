package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"bless/internal/fleet"
	"bless/internal/harness"
	"bless/internal/invariant"
	"bless/internal/model"
	"bless/internal/profiler"
	"bless/internal/sim"
)

// fleetScenario is the workload's scenario: about 6 tenants per device over
// three SM classes, with a horizon long enough that devices run out of
// memory and the restricted-context fallback runs.
func fleetScenario(cfg *config, seed int64) harness.FleetScenario {
	s := cfg.scale
	return harness.FleetScenarioN(seed, s.fleetTenants, s.fleetDevices, sim.Time(s.fleetHorizonMS)*sim.Millisecond)
}

// fleetClasses returns the scenario's distinct device configs, by SM count.
func fleetClasses(sc harness.FleetScenario) []sim.Config {
	seen := map[int]sim.Config{}
	for _, d := range sc.Devices {
		seen[d.Config.SMs] = d.Config
	}
	if sc.Autoscale != nil {
		seen[sc.Autoscale.Template.Config.SMs] = sc.Autoscale.Template.Config
	}
	var out []sim.Config
	for _, c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SMs > out[j].SMs })
	return out
}

// fleetApps returns the scenario's distinct apps in first-seen order.
func fleetApps(sc harness.FleetScenario) []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range sc.Tenants {
		if !seen[t.App] {
			seen[t.App] = true
			out = append(out, t.App)
		}
	}
	return out
}

// buildFleet assembles the scenario's fleet the way harness.RunFleet does —
// pool, tenants admitted and routed, migrations armed — from the given
// profiles, for timing the build as set-up. The fleet is never run.
func buildFleet(sc harness.FleetScenario, profs map[string]*profiler.Profile) error {
	var checker *invariant.FleetChecker
	if sc.Invariants {
		checker = invariant.NewFleetChecker(invariant.FleetOptions{Repro: sc.Repro})
	}
	f, err := fleet.NewSharded(fleet.Config{
		Seed:      sc.Seed,
		Devices:   sc.Devices,
		Runtime:   sc.Runtime,
		Policy:    sc.Policy,
		Checker:   checker,
		Rebalance: sc.Rebalance,
		Autoscale: sc.Autoscale,
		Profile: func(name string, c sim.Config) (*model.App, *profiler.Profile, error) {
			app, err := model.Get(name)
			if err != nil {
				return nil, nil, err
			}
			p := profs[fmt.Sprintf("%s/%d", name, c.SMs)]
			if p == nil {
				return nil, nil, fmt.Errorf("no profile of %s on %d SMs", name, c.SMs)
			}
			return app, p, nil
		},
	})
	if err != nil {
		return err
	}
	for _, t := range sc.Tenants {
		if err := f.Admit(fleet.TenantSpec{
			Name: t.Name, App: t.App, Quota: t.Quota, SLOTarget: t.SLOTarget,
			Think: t.Think, Requests: t.Requests,
		}); err != nil {
			return err
		}
	}
	for _, m := range sc.Migrations {
		f.ScheduleMigration(m.At, m.Tenant, m.Target)
	}
	return nil
}

func fleetRound(cfg *config, seed int64, tr *tracer) (*round, error) {
	root := tr.begin("fleet.round", 0)
	defer tr.end(root)
	sc := fleetScenario(cfg, seed)
	r := &round{sim: map[string]float64{}, host: map[string]float64{}, layer: map[string]float64{}}

	// Set-up: cold profiles of every app on every SM class, then the build.
	start := time.Now()
	sp := tr.begin("setup", root)
	profs, err := coldProfiles(tr, sp, fleetApps(sc), fleetClasses(sc))
	if err != nil {
		return nil, err
	}
	profiled := time.Since(start)
	b := tr.begin("fleet.build", sp)
	if err := buildFleet(sc, profs); err != nil {
		return nil, err
	}
	tr.end(b)
	tr.end(sp)
	r.setup = time.Since(start)
	r.layer["profiler.profiles"] = float64(len(profs))
	r.layer["profiler.ms_per_profile"] = float64(profiled.Microseconds()) / 1e3 / float64(len(profs))

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp = tr.begin("harness.RunFleet", root)
	if err := tr.startProfile(); err != nil {
		return nil, err
	}
	cpu0, t0 := cpuTime(), time.Now()
	res, err := harness.RunFleet(sc)
	r.wall, r.cpu = time.Since(t0), cpuTime()-cpu0
	if err := tr.stopProfile(); err != nil {
		return nil, err
	}
	tr.end(sp)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}

	st := res.Stats
	r.attempted, r.reqs = st.Routed, st.Completed
	r.failed = st.Routed - st.Completed
	r.digest = fmt.Sprintf("%016x", res.Digest)

	smsOf := map[int]int{}
	var util float64
	for _, d := range res.Devices {
		smsOf[d.Device] = d.SMs
		util += d.Utilization
	}
	var means []float64
	var p99Sum, latRatio, p99Ratio float64
	for _, t := range res.Tenants {
		if t.Evicted || t.Completed == 0 {
			continue
		}
		c := sim.DefaultConfig()
		c.SMs = smsOf[t.Device]
		prof, err := harness.ProfileFor(t.App, c)
		if err != nil {
			return nil, err
		}
		iso := float64(prof.IsoAtQuota(t.Quota))
		means = append(means, float64(t.MeanLat))
		p99Sum += float64(t.P99Lat)
		latRatio += float64(t.MeanLat) / iso
		p99Ratio = max(p99Ratio, float64(t.P99Lat)/iso)
	}
	if len(means) == 0 {
		return nil, fmt.Errorf("no tenant completed a request")
	}
	r.sim["p50_us"] = medianOf(means) / 1e3
	// RunFleet reports per-tenant summaries, not samples: p99_us is the
	// tenants' mean p99, which, unlike a percentile of 200 tenant p99s,
	// does not sit on one tenant's value for most seeds.
	r.sim["p99_us"] = p99Sum / float64(len(means)) / 1e3
	r.sim["lat_vs_iso"] = latRatio / float64(len(means))
	r.sim["p99_vs_iso"] = p99Ratio
	r.sim["sm_util"] = util / float64(len(res.Devices))
	r.sim["done_frac"] = float64(st.Completed) / float64(st.Routed)
	r.sim["admit_frac"] = float64(st.Admitted) / float64(st.Admitted+st.AdmitRejected)

	r.layer["fleet.routed"] = float64(st.Routed)
	r.layer["fleet.migrations"] = float64(st.Migrations)
	r.layer["fleet.migrations_rejected"] = float64(st.MigrationsRejected)
	r.layer["fleet.rebalances"] = float64(st.Rebalances)
	r.layer["fleet.scaleups"] = float64(st.ScaleUps)
	r.layer["go.allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(r.reqs)
	r.layer["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	if rep := res.Invariants; rep != nil {
		r.layer["invariant.events"] = float64(rep.Events)
		r.layer["invariant.violations"] = float64(len(rep.Violations))
		for _, v := range rep.Violations {
			r.problems = append(r.problems, "fleet invariant: "+v.Error())
		}
	} else if tr.instrumented() {
		return nil, fmt.Errorf("instrumented round ran without the fleet invariant checker")
	}
	return r, nil
}
