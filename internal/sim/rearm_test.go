package sim

import (
	"math/rand"
	"testing"
)

// firing is one event firing as a script observes it: the clock and the
// script-level id of the event.
type firing struct {
	at Time
	id int
}

// rearmScript drives one engine through a seeded random interleaving of
// Schedule, Cancel, move and Step, then drains it. A move re-times a live
// event: in place with Engine.Rearm when inPlace, else by Cancel followed by
// Schedule. Every few firings the callback moves another live event, as the
// device's completion pass does from inside its event. The script also
// checks, after every operation, that the heap holds no more events than
// the live ones plus the husks its own Cancel calls left (reported as ok).
func rearmScript(seed int64, inPlace bool) (fired []firing, ok bool) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	var handles []*Event // by id; nil once fired or canceled
	live, cancels := 0, 0
	ok = true

	var fire func(id int) func()
	move := func(id int, at Time) {
		if inPlace {
			e.Rearm(handles[id], at)
			return
		}
		handles[id].Cancel()
		handles[id] = e.Schedule(at, fire(id))
	}
	pickLive := func() int {
		if live == 0 {
			return -1
		}
		n := rng.Intn(live)
		for id, h := range handles {
			if h != nil {
				if n == 0 {
					return id
				}
				n--
			}
		}
		panic("live count out of sync")
	}
	fire = func(id int) func() {
		return func() {
			fired = append(fired, firing{e.Now(), id})
			handles[id] = nil
			live--
			if id%3 == 0 {
				for j, h := range handles {
					if h != nil {
						move(j, e.Now()+Time(id%7))
						break
					}
				}
			}
		}
	}

	for step := 0; step < 2000; step++ {
		// Offsets reach 5ns into the past to exercise the clamp to now.
		at := e.Now() + Time(rng.Intn(40)) - 5
		switch r := rng.Intn(10); {
		case r < 3:
			handles = append(handles, e.Schedule(at, fire(len(handles))))
			live++
		case r == 3:
			if id := pickLive(); id >= 0 {
				handles[id].Cancel()
				handles[id] = nil
				live--
				cancels++
			}
		case r < 7:
			if id := pickLive(); id >= 0 {
				move(id, at)
			}
		default:
			e.Step()
		}
		if e.Pending() > live+cancels {
			ok = false
		}
	}
	e.Run()
	return fired, ok
}

// TestRearmMatchesCancelSchedule: Rearm fires every event at the same time
// and in the same order as Cancel+Schedule, across random interleavings —
// including re-arms issued from inside firing callbacks — and never leaves
// a canceled event behind.
func TestRearmMatchesCancelSchedule(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got, bounded := rearmScript(seed, true)
		want, _ := rearmScript(seed, false)
		if len(got) != len(want) {
			t.Fatalf("seed %d: Rearm fired %d events, Cancel+Schedule %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d = %+v under Rearm, %+v under Cancel+Schedule", seed, i, got[i], want[i])
			}
		}
		if len(want) == 0 {
			t.Fatalf("seed %d: script fired nothing", seed)
		}
		if !bounded {
			t.Fatalf("seed %d: pending events exceeded live events plus explicit cancels", seed)
		}
	}
}

// TestRearmKeepsPendingBounded: re-arming one event many times leaves the
// heap at its live size, where Cancel+Schedule would pile up one canceled
// event per move.
func TestRearmKeepsPendingBounded(t *testing.T) {
	e := NewEngine()
	fired := 0
	ev := e.Schedule(10, func() { fired++ })
	e.Schedule(5, func() {})
	for i := 0; i < 1000; i++ {
		e.Rearm(ev, Time(100+i%50))
		if n := e.Pending(); n != 2 {
			t.Fatalf("after %d re-arms: Pending = %d, want 2", i+1, n)
		}
	}
	e.Run()
	if fired != 1 {
		t.Fatalf("re-armed event fired %d times, want 1", fired)
	}
	if e.Now() != Time(100+999%50) {
		t.Fatalf("clock = %v, want the last re-arm time %v", e.Now(), Time(100+999%50))
	}
}

// TestRearmRejectsDeadEvents: only a pending event may be re-armed.
func TestRearmRejectsDeadEvents(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Rearm did not panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	canceled := e.Schedule(10, func() {})
	canceled.Cancel()
	mustPanic("canceled", func() { e.Rearm(canceled, 20) })
	fired := e.Schedule(10, func() {})
	e.Run()
	mustPanic("fired", func() { e.Rearm(fired, 20) })
}

// TestDeviceCompletionReArmsInPlace: every enqueue onto a busy queue
// re-arms the device's completion event; the heap keeps one event for it
// instead of one canceled event per re-arm.
func TestDeviceCompletionReArmsInPlace(t *testing.T) {
	eng := NewEngine()
	g := NewGPU(eng, DefaultConfig())
	ctx, err := g.NewContext(ContextOptions{NoMemCharge: true})
	if err != nil {
		t.Fatal(err)
	}
	q := ctx.NewQueue("q")
	k := &Kernel{Name: "k", Kind: Compute, Work: 108 * Microsecond, SaturationSMs: 108}
	for i := 0; i < 200; i++ {
		q.Enqueue(0, k, nil)
	}
	if n := eng.Pending(); n != 1 {
		t.Fatalf("Pending = %d after 200 enqueues, want the one completion event", n)
	}
	eng.Run()
	if !g.Quiescent() || g.Stats().KernelsCompleted != 200 {
		t.Fatalf("device did not drain: quiescent %v, completed %d", g.Quiescent(), g.Stats().KernelsCompleted)
	}
}
