package harness

import (
	"fmt"
	"testing"

	"bless/internal/chaos"
	"bless/internal/invariant"
	"bless/internal/sim"
	"bless/internal/trace"
)

// TestOpenLoopChurnDigestPinned pins an open-loop run with churn: two Poisson
// tenants and a burst, one Poisson tenant crashing mid-schedule (its later
// arrivals are dropped) and a Poisson tenant joining at 40ms (its schedule
// offset to the join instant and cut at the horizon). The digests and
// per-client counts were recorded when every arrival was its own engine
// event; arrival series must reproduce them bit for bit.
func TestOpenLoopChurnDigestPinned(t *testing.T) {
	const horizon = 120 * sim.Millisecond
	sched, err := NewSystem("BLESS")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{
		Scheduler: sched,
		Clients: []ClientSpec{
			{App: "resnet50", Quota: 0.4, Pattern: trace.Poisson(150, horizon, 3)},
			{App: "vgg11", Quota: 0.3, Pattern: trace.Poisson(200, horizon, 4)},
			{App: "bert", Quota: 0.3, Pattern: trace.Burst(3, 5*sim.Millisecond)},
		},
		Horizon:    horizon,
		Invariants: &invariant.Options{},
		Faults: &FaultPlan{
			Plan: chaos.Plan{Seed: 1, Crashes: []chaos.ClientEvent{{Client: 1, At: 70 * sim.Millisecond}}},
			Joins: []Join{{
				At:   40 * sim.Millisecond,
				Spec: ClientSpec{App: "resnet101", Quota: 0.3, Pattern: trace.Poisson(120, horizon, 5)},
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("checker %016x completion %016x", res.Invariants.Digest, CompletionDigest(res))
	for _, c := range res.PerClient {
		got += fmt.Sprintf(" %s:%d/%d/%d", c.App, c.Submitted, c.Completed, c.Failed)
	}
	const want = "checker 7859b511522e0d69 completion 70e6b6331c82ef38 resnet50:12/12/0 vgg11:10/3/0 bert:3/3/0 resnet101:9/9/0"
	if got != want {
		t.Fatalf("open-loop churn run:\n got  %s\n want %s", got, want)
	}
}
