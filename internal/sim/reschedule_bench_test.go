package sim

import (
	"fmt"
	"testing"
)

// BenchmarkReschedule measures the steady-state cost of the device's
// rate-recomputation hot path under a contended multi-queue load: four
// closed-loop queues (two unrestricted, two SM-restricted) keep the device
// saturated, every completion triggers a full reschedule, and every re-enqueue
// lands on a busy queue. One op is one kernel through enqueue, rate
// assignment and retirement. Run with -benchmem; scripts/bench_compare.sh
// gates allocs/op against the recorded baseline in BENCH_sim.json.
func BenchmarkReschedule(b *testing.B) {
	eng := NewEngine()
	g := NewGPU(eng, DefaultConfig())
	const nq = 4
	queues := make([]*Queue, nq)
	for i := 0; i < nq; i++ {
		limit := 0
		if i%2 == 1 {
			limit = 36 // mixed tiers: restricted contexts alongside unrestricted
		}
		ctx, err := g.NewContext(ContextOptions{
			SMLimit:     limit,
			NoMemCharge: true,
			Label:       fmt.Sprintf("c%d", i),
		})
		if err != nil {
			b.Fatal(err)
		}
		queues[i] = ctx.NewQueue(fmt.Sprintf("q%d", i))
	}
	runClosedLoop(b, eng, queues)
}

// BenchmarkRescheduleSparse is BenchmarkReschedule on a device shaped like
// the colocate workload: four owners, each deploying a default context plus
// 17 restricted ones (one per partition grant below the full device), so 72
// queues exist while only four — two default, two restricted — are busy.
// Per-event work must scale with the busy queues, not the deployed ones.
func BenchmarkRescheduleSparse(b *testing.B) {
	eng := NewEngine()
	g := NewGPU(eng, DefaultConfig())
	const owners, grants = 4, 17
	var busy []*Queue
	for o := 0; o < owners; o++ {
		for p := 0; p <= grants; p++ {
			limit := 0 // p == 0 is the owner's default context
			if p > 0 {
				limit = g.Config().SMs * p / (grants + 1)
			}
			ctx, err := g.NewContext(ContextOptions{
				SMLimit:     limit,
				NoMemCharge: true,
				Owner:       OwnerTag(o),
				Label:       fmt.Sprintf("o%d/p%d", o, p),
			})
			if err != nil {
				b.Fatal(err)
			}
			q := ctx.NewQueue(fmt.Sprintf("o%d/p%d", o, p))
			// Owners 0 and 2 run on their default context, 1 and 3 on a
			// third of the device.
			if (o%2 == 0 && p == 0) || (o%2 == 1 && p == 6) {
				busy = append(busy, q)
			}
		}
	}
	runClosedLoop(b, eng, busy)
}

// runClosedLoop keeps every queue two kernels deep, relaunching on each
// completion until b.N kernels have been launched, and times the drain.
func runClosedLoop(b *testing.B, eng *Engine, queues []*Queue) {
	k := &Kernel{
		Name:          "bench",
		Kind:          Compute,
		Work:          54 * Microsecond,
		SaturationSMs: 80,
		MemIntensity:  0.4,
	}

	remaining := b.N
	for _, q := range queues {
		q := q
		var relaunch func(at Time)
		relaunch = func(at Time) {
			if remaining > 0 {
				remaining--
				q.Enqueue(at, k, relaunch)
			}
		}
		// Prime each queue two deep so steady-state re-enqueues always hit a
		// busy queue (the common shape under closed-loop load).
		q.Enqueue(0, k, relaunch)
		q.Enqueue(0, k, relaunch)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for eng.Step() {
	}
}
