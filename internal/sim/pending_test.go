package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// fifoModel is the reference for the queues' pending FIFOs: a plain slice of
// the kernels enqueued but not yet started, plus the running kernel, per
// queue. Kernel starts are checked against it as they happen.
type fifoModel struct {
	t       *testing.T
	backlog map[*Queue][]*Kernel
	running map[*Queue]*Kernel
}

func (m *fifoModel) KernelStart(at Time, q *Queue, k *Kernel) {
	b := m.backlog[q]
	if len(b) == 0 || b[0] != k {
		m.t.Fatalf("t=%v: queue %s started %s, reference backlog %v", at, q.Label(), k.Name, names(b))
	}
	m.backlog[q] = b[1:]
	m.running[q] = k
}

func (m *fifoModel) KernelEnd(at Time, q *Queue, k *Kernel, _ float64) {
	m.running[q] = nil
}

func (m *fifoModel) KernelEnqueued(at Time, q *Queue, k *Kernel) {
	m.backlog[q] = append(m.backlog[q], k)
}

func names(ks []*Kernel) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = k.Name
	}
	return out
}

// TestPendingFIFOMatchesReference: under random enqueues, dispatches, backlog
// drops and pause/resume, every queue's Len, Idle, Loads entry and start
// order agree with a reference slice, and the backlog's backing array never
// grows past twice the queue's peak backlog.
func TestPendingFIFOMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eng := NewEngine()
	g := NewGPU(eng, DefaultConfig())
	m := &fifoModel{t: t, backlog: map[*Queue][]*Kernel{}, running: map[*Queue]*Kernel{}}
	g.AddTracer(m)
	var queues []*Queue
	for i := 0; i < 4; i++ {
		ctx, err := g.NewContext(ContextOptions{SMLimit: 27 * (i % 2), NoMemCharge: true})
		if err != nil {
			t.Fatal(err)
		}
		queues = append(queues, ctx.NewQueue(fmt.Sprintf("q%d", i)))
	}
	peak := map[*Queue]int{}
	var loads []QueueLoad
	check := func(step int) {
		t.Helper()
		loads = g.Loads(loads)
		for i, q := range queues {
			b, run := m.backlog[q], m.running[q]
			want := len(b)
			if run != nil {
				want++
			}
			if q.Len() != want || q.Idle() != (want == 0) {
				t.Fatalf("step %d: %s Len %d Idle %v, reference backlog %d running %v",
					step, q.Label(), q.Len(), q.Idle(), len(b), run != nil)
			}
			if ql := loads[i]; ql.Queue != q || ql.Pending != len(b) || ql.Running != run || ql.Paused != q.Paused() {
				t.Fatalf("step %d: %s load %+v, reference backlog %d running %v", step, q.Label(), ql, len(b), run)
			}
			for j, rec := range q.backlog() {
				if rec.k != b[j] {
					t.Fatalf("step %d: %s backlog %d is %s, reference %s", step, q.Label(), j, rec.k.Name, b[j].Name)
				}
			}
			peak[q] = max(peak[q], len(b))
			if c := cap(q.pending); c > 2*max(peak[q], 1) {
				t.Fatalf("step %d: %s backing capacity %d exceeds twice its peak backlog %d", step, q.Label(), c, peak[q])
			}
		}
	}
	for step := 0; step < 4000; step++ {
		q := queues[rng.Intn(len(queues))]
		switch r := rng.Intn(12); {
		case r < 5:
			k := &Kernel{Name: fmt.Sprintf("k%d", step), Kind: Compute,
				Work: Time(1+rng.Intn(20)) * Microsecond, SaturationSMs: 40, MemIntensity: 0.2}
			q.Enqueue(eng.Now(), k, nil)
		case r == 5:
			q.Pause()
		case r == 6:
			q.Resume()
		case r == 7:
			want := m.backlog[q]
			got := q.CancelPending()
			if len(got) != len(want) {
				t.Fatalf("step %d: CancelPending removed %d, reference backlog %d", step, len(got), len(want))
			}
			for j := range got {
				if got[j].K != want[j] {
					t.Fatalf("step %d: CancelPending[%d] = %s, reference %s", step, j, got[j].K.Name, want[j].Name)
				}
			}
			m.backlog[q] = nil
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
	for _, q := range queues {
		if !q.Idle() || q.head != 0 || len(q.pending) != 0 {
			t.Fatalf("%s after drain: Idle %v head %d len %d", q.Label(), q.Idle(), q.head, len(q.pending))
		}
	}
}
