package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/rpc"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"

	"bless/internal/core"
	"bless/internal/harness"
	"bless/internal/model"
	"bless/internal/profiler"
	"bless/internal/serveapi"
	"bless/internal/sim"
)

// servePinned is the ServeClose digest of the full-scale serve round at
// defaultSeed.
const servePinned = "9f26745e70b8f833"

const (
	serveApp     = "resnet50"
	serveQuota   = 0.225
	serveTenants = 4
	// serveConns is both the TCP connection count and the issuing goroutine
	// count: at most nproc on the reference 2-core host.
	serveConns = 2
	// serveWindow is the pipelined in-flight request count per connection.
	// Deeper windows only queue requests inside blessd: on a 2-vCPU host a
	// window of 16 raised p99 from about 0.25 ms to 4 ms and made it vary
	// 2.5x between runs.
	serveWindow = 2
)

// serveRates returns each tenant's offered rate as a multiple of its
// bubble-free rate (one request per iso service time): tenants 0 and 1 are
// offered about half (admitted, must never shed), tenants 2 and 3 about
// four times that (the shed path). The seed jitters the multiples.
func serveRates(seed int64) [serveTenants]float64 {
	rng := rand.New(rand.NewSource(seed))
	var m [serveTenants]float64
	for i := range m {
		if i < 2 {
			m[i] = 0.45 + 0.1*rng.Float64()
		} else {
			m[i] = 1.8 + 0.4*rng.Float64()
		}
	}
	return m
}

func serveName(i int) string { return fmt.Sprintf("t%d", i) }

// daemon is a blessd child process.
type daemon struct {
	cmd                *exec.Cmd
	rpcAddr, debugAddr string
	logDone            chan struct{}
}

var (
	rpcAddrRE   = regexp.MustCompile(`planning service on (\S+)`)
	debugAddrRE = regexp.MustCompile(`debug endpoints on http://([^/\s]+)/`)
)

// startBlessd execs blessd on loopback ports of its choosing and waits for
// both listen lines on its log.
func startBlessd(path string) (*daemon, error) {
	cmd := exec.Command(path, "-listen", "127.0.0.1:0", "-debug", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logs, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start blessd: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	ready := make(chan [2]string, 1)
	go func() {
		defer close(d.logDone)
		notify := ready // nil once sent
		var addrs [2]string
		sc := bufio.NewScanner(logs)
		for sc.Scan() {
			if m := rpcAddrRE.FindStringSubmatch(sc.Text()); m != nil {
				addrs[0] = m[1]
			}
			if m := debugAddrRE.FindStringSubmatch(sc.Text()); m != nil {
				addrs[1] = m[1]
			}
			if addrs[0] != "" && addrs[1] != "" && notify != nil {
				notify <- addrs
				notify = nil
			} else if notify == nil {
				fmt.Fprintf(os.Stderr, "blessd: %s\n", sc.Text())
			}
		}
		_, _ = io.Copy(io.Discard, logs)
	}()
	select {
	case a := <-ready:
		d.rpcAddr, d.debugAddr = a[0], a[1]
		return d, nil
	case <-d.logDone:
		d.stop()
		return nil, fmt.Errorf("blessd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("blessd did not report its listen addresses within 30s")
	}
}

// stop kills blessd and waits for it and its log reader to finish.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.logDone
	_ = d.cmd.Wait() // killed: the exit status carries no information
}

// memStats reads blessd's allocation and GC counters from /debug/vars.
func (d *daemon) memStats() (mallocs, numGC uint64, err error) {
	resp, err := http.Get("http://" + d.debugAddr + "/debug/vars")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var v struct {
		Memstats struct {
			Mallocs uint64
			NumGC   uint64
		} `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, 0, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return v.Memstats.Mallocs, v.Memstats.NumGC, nil
}

// fetchProfile saves a CPU profile of blessd over the next seconds.
func (d *daemon) fetchProfile(path string, seconds int) error {
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", d.debugAddr, seconds))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("blessd profile: %s", resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tally is the generator's view of one tenant's decisions.
type tally struct {
	admitted, shed int64
	// ratios holds (wait+service)/service by seq, virtual; 0 marks a shed
	// request. Indexing by seq keeps float sums independent of reply order.
	ratios []float64
}

// admittedRatios returns the admitted requests' ratios in seq order.
func (tl *tally) admittedRatios() []float64 {
	out := make([]float64, 0, tl.admitted)
	for _, v := range tl.ratios {
		if v > 0 {
			out = append(out, v)
		}
	}
	return out
}

// slot is one in-flight request of a connection's window.
type slot struct {
	reply  serveapi.ServeReply
	sent   time.Time
	tenant int
}

// driveConn runs one connection's closed loop: its tenants' requests
// interleaved in seq order, at most serveWindow in flight, the next one
// issued as soon as any reply arrives. It records each round trip.
func driveConn(cl *rpc.Client, tenants []int, n int, lat *[]time.Duration, tallies []tally) error {
	done := make(chan *rpc.Call, serveWindow) // one buffer slot per in-flight call
	slots := make([]slot, serveWindow)
	byReply := make(map[*serveapi.ServeReply]int, serveWindow)
	free := make([]int, serveWindow)
	for i := range slots {
		byReply[&slots[i].reply] = i
		free[i] = i
	}
	total := n * len(tenants)
	issued, answered := 0, 0
	for answered < total {
		for len(free) > 0 && issued < total {
			s := free[len(free)-1]
			free = free[:len(free)-1]
			t := tenants[issued%len(tenants)]
			req := serveapi.ServeRequest{Tenant: serveName(t), Seq: issued / len(tenants)}
			// gob leaves fields absent from the wire (zero values, such as
			// Admitted=false) untouched, so a reused reply must start zeroed.
			slots[s] = slot{tenant: t, sent: time.Now()}
			cl.Go("Planner.Serve", req, &slots[s].reply, done)
			issued++
		}
		call := <-done
		s := byReply[call.Reply.(*serveapi.ServeReply)]
		*lat = append(*lat, time.Since(slots[s].sent))
		if call.Error != nil {
			return fmt.Errorf("%s: %w", call.ServiceMethod, call.Error)
		}
		rep, tl := &slots[s].reply, &tallies[slots[s].tenant]
		if rep.Admitted {
			tl.admitted++
			tl.ratios[rep.Seq] = float64(rep.WaitNS+rep.ServiceNS) / float64(rep.ServiceNS)
		} else {
			tl.shed++
		}
		free = append(free, s)
		answered++
	}
	return nil
}

// replayLanes decides the round's request streams in-process on fresh
// lanes with blessd's parameters and returns the XOR-folded digest and the
// mean time per decision.
func replayLanes(info []serveapi.ServeTenantInfo, n int) (string, time.Duration, error) {
	lanes := make([]*core.ServeLane, len(info))
	for i, t := range info {
		l, err := core.NewServeLane(sim.Time(t.IntervalNS), sim.Time(t.ServiceNS), sim.Time(t.BoundNS))
		if err != nil {
			return "", 0, err
		}
		l.SeedDigest(t.Name)
		lanes[i] = l
	}
	var d core.ServeDecision
	start := time.Now()
	for _, l := range lanes {
		for seq := 0; seq < n; seq++ {
			l.Decide(seq, &d)
		}
	}
	per := time.Since(start) / time.Duration(n*len(lanes))
	return fmt.Sprintf("%016x", core.ServeDigest(lanes)), per, nil
}

func serveRound(cfg *config, seed int64, tr *tracer) (*round, error) {
	root := tr.begin("serve.round", 0)
	defer tr.end(root)
	n := cfg.scale.serveRequests
	r := &round{sim: map[string]float64{}, host: map[string]float64{}, layer: map[string]float64{}}

	// The offered rates are inputs derived from the tenant's iso service
	// time, which blessd's own profile gives; profile cold here too, to
	// report the profiler's cost on this workload.
	sp := tr.begin("profiler.ProfileApp", root)
	app, err := model.Get(serveApp)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := profiler.ProfileApp(app, profiler.Options{}); err != nil {
		return nil, err
	}
	r.layer["profiler.profiles"] = 1
	r.layer["profiler.ms_per_profile"] = float64(time.Since(t0).Microseconds()) / 1e3
	tr.end(sp)
	prof, err := harness.ProfileFor(serveApp, sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	bubbleFree := float64(sim.Second) / float64(prof.IsoAtQuota(serveQuota))
	mult := serveRates(seed)
	open := serveapi.ServeOpenRequest{}
	for t := range mult {
		open.Tenants = append(open.Tenants, serveapi.ServeTenant{
			Name: serveName(t), App: serveApp, Quota: serveQuota, RateRPS: mult[t] * bubbleFree,
		})
	}

	// Set-up: exec -> listening -> connected -> ServeOpen reply.
	start := time.Now()
	sp = tr.begin("setup", root)
	x := tr.begin("blessd.exec", sp)
	d, err := startBlessd(cfg.blessd)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	tr.end(x)
	conns := make([]*rpc.Client, serveConns)
	for c := range conns {
		if conns[c], err = rpc.Dial("tcp", d.rpcAddr); err != nil {
			return nil, fmt.Errorf("dial blessd: %w", err)
		}
		defer conns[c].Close()
	}
	x = tr.begin("rpc.ServeOpen", sp)
	var opened serveapi.ServeOpenReply
	if err := conns[0].Call("Planner.ServeOpen", open, &opened); err != nil {
		return nil, fmt.Errorf("ServeOpen: %w", err)
	}
	tr.end(x)
	tr.end(sp)
	r.setup = time.Since(start)

	// The measured work: the closed loop.
	pid := d.cmd.Process.Pid
	mallocs0, gc0, err := d.memStats()
	if err != nil {
		return nil, err
	}
	var profErr chan error
	if tr.profiling() {
		path := filepath.Join(tr.out, fmt.Sprintf("blessd-%d.pprof", len(tr.profiles)))
		tr.profiles = append(tr.profiles, path)
		profErr = make(chan error, 1)
		go func() { profErr <- d.fetchProfile(path, 1) }()
	}
	tallies := make([]tally, serveTenants)
	for t := range tallies {
		tallies[t].ratios = make([]float64, n)
	}
	lats := make([][]time.Duration, serveConns)
	errs := make([]error, serveConns)
	sp = tr.begin("gen.drive", root)
	bcpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	gcpu0, t1 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lats[c] = make([]time.Duration, 0, n*serveTenants/serveConns)
			errs[c] = driveConn(conns[c], []int{c, c + serveConns}, n, &lats[c], tallies)
		}(c)
	}
	wg.Wait()
	r.wall = time.Since(t1)
	gcpu := cpuTime() - gcpu0
	bcpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	r.cpu = bcpu1 - bcpu0
	tr.end(sp)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if profErr != nil {
		if err := <-profErr; err != nil {
			return nil, err
		}
	}
	mallocs1, gc1, err := d.memStats()
	if err != nil {
		return nil, err
	}
	if r.host["rss_mb"], err = procPeakRSSMB(pid); err != nil {
		return nil, err
	}
	sp = tr.begin("rpc.ServeClose", root)
	var closed serveapi.ServeCloseReply
	if err := conns[0].Call("Planner.ServeClose", struct{}{}, &closed); err != nil {
		return nil, fmt.Errorf("ServeClose: %w", err)
	}
	tr.end(sp)
	st := closed.Stats

	var all []float64
	for _, l := range lats {
		for _, v := range l {
			all = append(all, float64(v)/1e3)
		}
	}
	sent := int64(n * serveTenants)
	r.attempted, r.reqs = sent, int64(len(all))
	r.failed = sent - r.reqs
	r.digest = st.Digest
	r.host["p50_us"] = quantileOf(all, 0.50)
	r.host["p99_us"] = quantileOf(all, 0.99)

	var latRatio, p99Ratio, occupancy float64
	for t, tl := range tallies {
		info := opened.Tenants[t]
		ratios := tl.admittedRatios()
		latRatio += meanOf(ratios)
		p99Ratio = max(p99Ratio, quantileOf(ratios, 0.99))
		occupancy += serveQuota * float64(tl.admitted*info.ServiceNS) / float64(int64(n)*info.IntervalNS)
	}
	r.sim["lat_vs_iso"] = latRatio / serveTenants
	r.sim["p99_vs_iso"] = p99Ratio
	r.sim["sm_util"] = occupancy
	r.sim["done_frac"] = float64(r.reqs) / float64(sent)
	r.sim["admit_frac"] = float64(st.Admitted) / float64(st.Offered)

	// Correctness: every request answered and decided once, no serve
	// invariant breach, in-quota tenants never shed, and the digest
	// reproduced by an in-process replay of the same streams.
	r.problems = append(r.problems, st.Violations...)
	if st.Offered != uint64(sent) {
		r.problems = append(r.problems, fmt.Sprintf("blessd decided %d requests, %d sent", st.Offered, sent))
	}
	for t, pt := range st.PerTenant {
		tl := tallies[t]
		if pt.Name != serveName(t) || int64(pt.Admitted) != tl.admitted || int64(pt.Shed) != tl.shed {
			r.problems = append(r.problems, fmt.Sprintf("tenant %s: blessd counted %d admitted/%d shed, replies said %d/%d",
				pt.Name, pt.Admitted, pt.Shed, tl.admitted, tl.shed))
		}
		if mult[t] < 1 && pt.Shed > 0 {
			r.problems = append(r.problems, fmt.Sprintf("in-quota tenant %s shed %d requests", pt.Name, pt.Shed))
		}
	}
	sp = tr.begin("lane.replay", root)
	replayed, perDecision, err := replayLanes(opened.Tenants, n)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	if replayed != st.Digest {
		r.problems = append(r.problems, fmt.Sprintf("blessd digest %s, in-process replay %s", st.Digest, replayed))
	}

	r.layer["planner.decision_ns"] = st.DecisionMeanNS
	r.layer["planner.batch_mean"] = st.BatchMeanSize
	r.layer["planner.wait_p99_ms"] = float64(st.WaitP99NS) / 1e6
	r.layer["lane.decide_ns"] = float64(perDecision)
	r.layer["gen.cpu_us_per_req"] = float64(gcpu.Microseconds()) / float64(r.reqs)
	r.layer["go.allocs_per_req"] = float64(mallocs1-mallocs0) / float64(r.reqs)
	r.layer["go.gc_cycles"] = float64(gc1 - gc0)
	r.layer["invariant.violations"] = float64(len(st.Violations))
	return r, nil
}
