package harness

import (
	"testing"

	"bless/internal/core"
	"bless/internal/sim"
	"bless/internal/trace"
)

// BenchmarkOpenLoopColocate runs BLESS over the colocate mix — nasnet, bert,
// resnet50 and vgg11 at quota 0.25, each a Poisson stream at 60% of its ISO
// capacity — for 5 virtual seconds of arrivals, then drains. Unlike the
// closed-loop and corpus entries, its arrival schedule is known up front,
// so it is the gate's view of how arrivals load the event heap.
func BenchmarkOpenLoopColocate(b *testing.B) {
	const horizon = 5 * sim.Second
	var specs []ClientSpec
	for i, app := range []string{"nasnet", "bert", "resnet50", "vgg11"} {
		prof, err := ProfileFor(app, sim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		rate := 0.6 * float64(sim.Second) / float64(prof.IsoAtQuota(0.25))
		specs = append(specs, ClientSpec{App: app, Quota: 0.25, Pattern: trace.Poisson(rate, horizon, 16+int64(i))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(RunConfig{Scheduler: core.New(core.DefaultOptions()), Clients: specs, Horizon: horizon})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.PerClient {
			if c.Completed != c.Submitted || c.Submitted != len(c.Latencies) {
				b.Fatalf("%s: %d of %d requests completed", c.App, c.Completed, c.Submitted)
			}
		}
	}
}
