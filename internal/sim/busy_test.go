package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestBusyListTracksNonIdleQueues: under random enqueues, pauses, resumes,
// backlog drops and event steps, the device's busy list holds exactly the
// non-idle queues in ascending id order — the order the hot passes rely on
// to keep floating-point accumulation unchanged.
func TestBusyListTracksNonIdleQueues(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eng := NewEngine()
	g := NewGPU(eng, DefaultConfig())
	var queues []*Queue
	for i := 0; i < 12; i++ {
		ctx, err := g.NewContext(ContextOptions{SMLimit: 9 * (i % 4), NoMemCharge: true})
		if err != nil {
			t.Fatal(err)
		}
		queues = append(queues, ctx.NewQueue(fmt.Sprintf("q%d", i)))
	}
	k := &Kernel{Name: "k", Kind: Compute, Work: 20 * Microsecond, SaturationSMs: 60, MemIntensity: 0.3}
	check := func(step int) {
		t.Helper()
		var want, got []int
		for _, q := range queues {
			if !q.Idle() {
				want = append(want, q.id)
			}
		}
		for q := g.busyHead; q != nil; q = q.busyNext {
			if q.busyNext != nil && q.busyNext.busyPrev != q {
				t.Fatalf("step %d: broken back link at queue %d", step, q.id)
			}
			got = append(got, q.id)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: busy list %v, non-idle queues %v", step, got, want)
		}
		if g.Quiescent() != (len(want) == 0) {
			t.Fatalf("step %d: Quiescent = %v with %d non-idle queues", step, g.Quiescent(), len(want))
		}
	}
	for step := 0; step < 3000; step++ {
		q := queues[rng.Intn(len(queues))]
		switch r := rng.Intn(10); {
		case r < 4:
			q.Enqueue(eng.Now()+Time(rng.Intn(3))*Microsecond, k, nil)
		case r == 4:
			q.Pause()
		case r == 5:
			q.Resume()
		case r == 6:
			q.CancelPending()
		default:
			eng.Step()
		}
		check(step)
	}
	for _, q := range queues {
		q.Resume()
	}
	eng.Run()
	check(-1)
}
