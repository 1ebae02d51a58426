package core

import (
	"testing"

	"bless/internal/model"
	"bless/internal/sharing"
	"bless/internal/sim"
)

// newEnv wires an engine, device and clients into a sharing.Env.
func newEnv(t testing.TB, clients []*sharing.Client) *sharing.Env {
	t.Helper()
	eng := sim.NewEngine()
	return &sharing.Env{
		Eng:     eng,
		GPU:     sim.NewGPU(eng, sim.DefaultConfig()),
		Clients: clients,
	}
}

// deployBLESS creates and deploys a runtime, failing the test on error.
func deployBLESS(t testing.TB, env *sharing.Env, opts Options) *Runtime {
	t.Helper()
	rt := New(opts)
	if err := rt.Deploy(env); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	return rt
}

// submitAt schedules a request submission at the given virtual time.
func submitAt(env *sharing.Env, rt *Runtime, c *sharing.Client, seq int, at sim.Time) *sharing.Request {
	r := &sharing.Request{Client: c, Seq: seq, Arrival: at}
	env.Eng.Schedule(at, func() { rt.Submit(r) })
	return r
}

func TestRuntimeSingleRequestUsesWholeGPU(t *testing.T) {
	clients := testClients(t, []float64{0.5, 0.5}, "resnet50", "vgg11")
	env := newEnv(t, clients)
	rt := deployBLESS(t, env, DefaultOptions())

	r := submitAt(env, rt, clients[0], 0, 0)
	env.Eng.Run()
	if r.Done == 0 {
		t.Fatal("request never completed")
	}
	// Despite a 50% quota, an uncontended request may use the entire GPU:
	// its latency must be near the FULL-GPU solo latency, far below the
	// 50%-quota isolated latency.
	solo := clients[0].Profile.Iso[clients[0].Profile.Partitions-1]
	iso50 := clients[0].Profile.IsoAtQuota(0.5)
	lat := r.Latency()
	if lat > solo+solo/5 {
		t.Errorf("uncontended latency %v, want near full-GPU solo %v", lat, solo)
	}
	if lat >= iso50 {
		t.Errorf("uncontended latency %v not below 50%%-quota ISO %v: bubbles unexploited", lat, iso50)
	}
}

func TestRuntimeOverlappedPairBeatsISO(t *testing.T) {
	// The headline claim (Fig 1c, §6.3): two overlapped requests with
	// quotas (1/3, 2/3) both finish no later than their quota-isolated
	// latencies, and at least one strictly earlier.
	clients := testClients(t, []float64{1.0 / 3, 2.0 / 3}, "vgg11", "resnet50")
	env := newEnv(t, clients)
	rt := deployBLESS(t, env, DefaultOptions())

	r0 := submitAt(env, rt, clients[0], 0, 0)
	r1 := submitAt(env, rt, clients[1], 0, 0)
	env.Eng.Run()

	iso0 := clients[0].Profile.IsoAtQuota(clients[0].Quota)
	iso1 := clients[1].Profile.IsoAtQuota(clients[1].Quota)
	// The request that outlives its peer must strictly beat ISO (it expands
	// into the freed GPU — the squeezed bubble); the co-runner may pay a
	// bounded squad-granularity premium (the paper's heterogeneous-kernel
	// pairs, Fig 12(d), sit closest to the ISO bound).
	if r0.Latency() >= iso0 {
		t.Errorf("vgg11 latency %v not below ISO %v at quota 1/3: bubbles unexploited", r0.Latency(), iso0)
	}
	if r1.Latency() > iso1+iso1/5 {
		t.Errorf("resnet50 latency %v exceeds ISO %v at quota 2/3 by more than 20%%", r1.Latency(), iso1)
	}
	// Jointly the pair must still clearly beat the isolated deployment.
	if avgLat, avgISO := (r0.Latency()+r1.Latency())/2, (iso0+iso1)/2; avgLat > avgISO*17/20 {
		t.Errorf("average latency %v above 85%% of average ISO %v", avgLat, avgISO)
	}
}

func TestRuntimeBackToBackRequestsAllComplete(t *testing.T) {
	clients := testClients(t, []float64{0.5, 0.5}, "vgg11", "resnet50")
	env := newEnv(t, clients)
	rt := deployBLESS(t, env, DefaultOptions())

	var reqs []*sharing.Request
	for seq := 0; seq < 5; seq++ {
		for _, c := range clients {
			reqs = append(reqs, submitAt(env, rt, c, seq, sim.Time(seq)*2*sim.Millisecond))
		}
	}
	env.Eng.Run()
	for _, r := range reqs {
		if r.Done == 0 {
			t.Fatalf("request %s/%d never completed", r.Client.App.Name, r.Seq)
		}
	}
	if got := env.Completed(); got != len(reqs) {
		t.Errorf("env counted %d completions, want %d", got, len(reqs))
	}
	// Per-client FIFO: completion order must follow sequence order.
	for _, c := range clients {
		var prev sim.Time
		for _, r := range reqs {
			if r.Client != c {
				continue
			}
			if r.Done < prev {
				t.Errorf("%s: request %d completed at %v before its predecessor at %v",
					c.App.Name, r.Seq, r.Done, prev)
			}
			prev = r.Done
		}
	}
}

func TestRuntimeArrivalDuringExecution(t *testing.T) {
	// A request arriving mid-execution of another's squad joins the next
	// squad: the earlier request's resources shrink (§1: "shrinks its
	// resources instantly when other requests arrive").
	clients := testClients(t, []float64{0.5, 0.5}, "nasnet", "resnet50")
	env := newEnv(t, clients)
	rt := deployBLESS(t, env, DefaultOptions())

	r0 := submitAt(env, rt, clients[0], 0, 0)
	r1 := submitAt(env, rt, clients[1], 0, 8*sim.Millisecond)
	env.Eng.Run()

	if r0.Done == 0 || r1.Done == 0 {
		t.Fatal("requests did not complete")
	}
	// The late arrival waits out at most one in-flight squad before joining;
	// its latency stays within ISO plus that bounded wait.
	iso1 := clients[1].Profile.IsoAtQuota(0.5)
	if r1.Latency() > iso1+iso1/5 {
		t.Errorf("late-arriving request latency %v exceeds ISO %v + 20%%", r1.Latency(), iso1)
	}
}

func TestRuntimeStatsCounters(t *testing.T) {
	clients := testClients(t, []float64{0.5, 0.5}, "vgg11", "resnet50")
	env := newEnv(t, clients)
	rt := deployBLESS(t, env, DefaultOptions())
	submitAt(env, rt, clients[0], 0, 0)
	submitAt(env, rt, clients[1], 0, 0)
	env.Eng.Run()

	st := rt.Stats()
	if st.SquadsExecuted == 0 {
		t.Error("no squads recorded")
	}
	wantKernels := int64(clients[0].App.NumKernels() + clients[1].App.NumKernels())
	if st.KernelsScheduled != wantKernels {
		t.Errorf("KernelsScheduled = %d, want %d", st.KernelsScheduled, wantKernels)
	}
	if st.ConfigsEvaluated == 0 {
		t.Error("determiner never ran")
	}
}

func TestRuntimeDeployRejectsBadQuotas(t *testing.T) {
	clients := testClients(t, []float64{0.7, 0.7}, "vgg11", "resnet50")
	env := newEnv(t, clients)
	rt := New(DefaultOptions())
	if err := rt.Deploy(env); err == nil {
		t.Error("quota sum 1.4 accepted")
	}
}

func TestRuntimeDeployRejectsMissingProfile(t *testing.T) {
	app := model.MustGet("vgg11")
	clients := []*sharing.Client{{ID: 0, App: app, Quota: 0.5}}
	env := newEnv(t, clients)
	rt := New(DefaultOptions())
	if err := rt.Deploy(env); err == nil {
		t.Error("client without profile accepted")
	}
}

func TestRuntimeDeployRejectsOOM(t *testing.T) {
	clients := testClients(t, []float64{0.5, 0.5}, "vgg11", "resnet50")
	eng := sim.NewEngine()
	cfg := sim.DefaultConfig()
	cfg.MemoryBytes = 1 << 30 // too small for both apps
	env := &sharing.Env{Eng: eng, GPU: sim.NewGPU(eng, cfg), Clients: clients}
	rt := New(DefaultOptions())
	if err := rt.Deploy(env); err == nil {
		t.Error("memory-exceeding deployment accepted")
	}
}

func TestRuntimeAblationsStillCorrect(t *testing.T) {
	// Both ablations must preserve correctness (all requests complete);
	// they only cost performance (Fig 20 quantifies how much — that lives
	// in the harness).
	for _, opts := range []Options{
		{DisableFairSelection: true},
		{DisableDeterminer: true},
		{DisableFairSelection: true, DisableDeterminer: true},
		{DisableSemiSP: true},
	} {
		clients := testClients(t, []float64{0.5, 0.5}, "vgg11", "resnet50")
		env := newEnv(t, clients)
		rt := deployBLESS(t, env, opts)
		r0 := submitAt(env, rt, clients[0], 0, 0)
		r1 := submitAt(env, rt, clients[1], 0, 0)
		env.Eng.Run()
		if r0.Done == 0 || r1.Done == 0 {
			t.Errorf("ablation %+v: requests did not complete", opts)
		}
	}
}

func TestRuntimeSquadSizeTradeoff(t *testing.T) {
	// Larger squads lower overhead; tiny squads still work. Both complete.
	for _, cap := range []int{5, 100} {
		clients := testClients(t, []float64{0.5, 0.5}, "resnet50", "resnet50")
		env := newEnv(t, clients)
		rt := deployBLESS(t, env, Options{MaxSquadKernels: cap})
		r0 := submitAt(env, rt, clients[0], 0, 0)
		r1 := submitAt(env, rt, clients[1], 0, 0)
		env.Eng.Run()
		if r0.Done == 0 || r1.Done == 0 {
			t.Fatalf("cap %d: incomplete requests", cap)
		}
		st := rt.Stats()
		if cap == 5 && st.SquadsExecuted < 20 {
			t.Errorf("cap 5 executed only %d squads; expected many small squads", st.SquadsExecuted)
		}
	}
}

func TestRuntimeSLOMode(t *testing.T) {
	// With relaxed SLO targets, requests still complete and the system does
	// not violate a loose 3x-ISO target under light load.
	clients := testClients(t, []float64{0.5, 0.5}, "vgg11", "resnet50")
	for _, c := range clients {
		c.SLOTarget = 3 * c.Profile.IsoAtQuota(c.Quota)
	}
	env := newEnv(t, clients)
	rt := deployBLESS(t, env, DefaultOptions())
	r0 := submitAt(env, rt, clients[0], 0, 0)
	r1 := submitAt(env, rt, clients[1], 0, 0)
	env.Eng.Run()
	for _, r := range []*sharing.Request{r0, r1} {
		if r.Done == 0 {
			t.Fatal("request incomplete")
		}
		if r.Latency() > r.Client.SLOTarget {
			t.Errorf("%s violated its loose SLO: %v > %v", r.Client.App.Name, r.Latency(), r.Client.SLOTarget)
		}
	}
}

func TestRuntimeManyClients(t *testing.T) {
	// Eight co-located clients (§6.4's largest configuration).
	names := []string{"vgg11", "resnet50", "vgg11", "resnet50", "vgg11", "resnet50", "vgg11", "resnet50"}
	quotas := []float64{0.05, 0.05, 0.10, 0.10, 0.15, 0.15, 0.20, 0.20}
	clients := testClients(t, quotas, names...)
	env := newEnv(t, clients)
	rt := deployBLESS(t, env, DefaultOptions())
	var reqs []*sharing.Request
	for _, c := range clients {
		reqs = append(reqs, submitAt(env, rt, c, 0, 0))
	}
	env.Eng.Run()
	for _, r := range reqs {
		if r.Done == 0 {
			t.Fatalf("client %d request incomplete", r.Client.ID)
		}
	}
}

func TestRuntimeGPUQuiescentAfterDrain(t *testing.T) {
	clients := testClients(t, []float64{0.5, 0.5}, "vgg11", "resnet50")
	env := newEnv(t, clients)
	rt := deployBLESS(t, env, DefaultOptions())
	submitAt(env, rt, clients[0], 0, 0)
	submitAt(env, rt, clients[1], 0, sim.Millisecond)
	env.Eng.Run()
	if !env.GPU.Quiescent() {
		t.Error("device not quiescent after all requests drained")
	}
}

func TestDeployFailureReleasesMemory(t *testing.T) {
	clients := testClients(t, []float64{0.5, 0.5}, "vgg11", "resnet50")
	eng := sim.NewEngine()
	cfg := sim.DefaultConfig()
	cfg.MemoryBytes = clients[0].App.MemoryBytes + cfg.ContextMemBytes + 100<<20
	env := &sharing.Env{Eng: eng, GPU: sim.NewGPU(eng, cfg), Clients: clients}
	if err := New(DefaultOptions()).Deploy(env); err == nil {
		t.Fatal("over-memory deployment accepted")
	}
	if used := env.GPU.MemUsed(); used != 0 {
		t.Errorf("failed deployment left %d bytes reserved", used)
	}
}

// TestNearestSlotTieBreaksLow pins the fallback context choice when two
// established grants are equally far from the requested one: the smaller
// grant wins on every call, whatever order the map iterates in.
func TestNearestSlotTieBreaksLow(t *testing.T) {
	low, high := &restrictedSlot{}, &restrictedSlot{}
	cs := &clientState{restricted: map[int]*restrictedSlot{40: low, 60: high, 90: {}}}
	for i := 0; i < 100; i++ {
		if got := cs.nearestSlot(50); got != low {
			t.Fatalf("call %d: nearestSlot(50) picked the 60-SM slot over the equidistant 40-SM one", i)
		}
	}
	if got := cs.nearestSlot(58); got != high {
		t.Error("nearestSlot(58) did not pick the strictly closer 60-SM slot")
	}
}
