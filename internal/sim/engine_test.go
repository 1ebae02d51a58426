package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
	if e.Now() != 50 {
		t.Errorf("clock = %v, want 50", e.Now())
	}
}

func TestEngineFIFOAmongEqualTimes(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break violated)", i, v, i)
		}
	}
}

func TestEnginePastEventsFireAtNow(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		e.Schedule(50, func() {
			if e.Now() != 100 {
				t.Errorf("past-scheduled event fired at %v, want clamped to 100", e.Now())
			}
		})
	})
	e.Run()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if e.Now() != 0 {
		t.Errorf("clock advanced to %v by canceled event", e.Now())
	}
}

func TestEngineCancelFromCallback(t *testing.T) {
	e := NewEngine()
	fired := false
	var victim *Event
	e.Schedule(5, func() { victim.Cancel() })
	victim = e.Schedule(10, func() { fired = true })
	e.Run()
	if fired {
		t.Error("event canceled from an earlier callback still fired")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(1, recurse)
		}
	}
	e.After(1, recurse)
	e.Run()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if e.Now() != 100 {
		t.Errorf("clock = %v, want 100", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=25, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Errorf("clock = %v after RunUntil(25), want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("fired %d events total, want 4", len(fired))
	}
	if e.Now() != 100 {
		t.Errorf("clock = %v, want 100", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Errorf("ran %d events after Stop at 3, want 3", count)
	}
	e.Run()
	if count != 10 {
		t.Errorf("resumed run fired %d total, want 10", count)
	}
}

func TestEngineStepOnEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step on empty engine reported an event")
	}
}

// Property: for any set of event timestamps, Run fires them in nondecreasing
// order and the clock ends at the maximum.
func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []int16) bool {
		e := NewEngine()
		var fired []Time
		var max Time
		for _, r := range raw {
			at := Time(r)
			if at < 0 {
				at = -at
			}
			if at > max {
				max = at
			}
			e.Schedule(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(raw) == 0 || e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{3 * Microsecond, "3us"},
		{10200 * Microsecond, "10.2ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if ms := (1500 * Microsecond).Milliseconds(); ms != 1.5 {
		t.Errorf("Milliseconds = %g, want 1.5", ms)
	}
	if us := (2 * Millisecond).Microseconds(); us != 2000 {
		t.Errorf("Microseconds = %g, want 2000", us)
	}
}

func TestEventAt(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(42*Microsecond, func() {})
	if ev.At() != 42*Microsecond {
		t.Errorf("At() = %v, want 42us", ev.At())
	}
	var nilEv *Event
	nilEv.Cancel() // must not panic
}

func TestEnginePendingTimes(t *testing.T) {
	e := NewEngine()
	if got := e.PendingTimes(nil); len(got) != 0 {
		t.Fatalf("empty engine reported pending times %v", got)
	}
	e.Schedule(30, func() {})
	ev := e.Schedule(10, func() {})
	e.Schedule(20, func() {})
	e.Schedule(20, func() {})
	ev.Cancel()
	got := e.PendingTimes(nil)
	want := []Time{20, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Appends after a prefix without touching it, and the heap still runs.
	buf := e.PendingTimes([]Time{5})
	if buf[0] != 5 || len(buf) != 4 {
		t.Fatalf("prefix not preserved: %v", buf)
	}
	e.Run()
	if n := len(e.PendingTimes(nil)); n != 0 {
		t.Fatalf("%d pending times after drain", n)
	}
}

// TestRunBeforeWindowSemantics pins the window primitive: strictly-before
// firing, clock landing exactly on the deadline, queued events surviving.
func TestRunBeforeWindowSemantics(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunBefore(15)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("RunBefore(15) fired %v, want [5 10]", fired)
	}
	if e.Now() != 15 {
		t.Fatalf("clock at %v after RunBefore(15), want 15", e.Now())
	}
	// The event at exactly the deadline fires in the next window.
	e.RunBefore(16)
	if len(fired) != 3 || fired[2] != 15 {
		t.Fatalf("second window fired %v, want the deadline event", fired)
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("drain fired %v", fired)
	}
}

// TestRunBeforeSchedulesWithinWindow: events scheduled by callbacks inside
// the window still fire if they land before the deadline.
func TestRunBeforeSchedulesWithinWindow(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(1, func() {
		n++
		e.Schedule(2, func() { n++ })
		e.Schedule(9, func() { n++ }) // at deadline: next window
	})
	e.RunBefore(9)
	if n != 2 {
		t.Fatalf("fired %d events in window, want 2", n)
	}
	if at, ok := e.PeekTime(); !ok || at != 9 {
		t.Fatalf("PeekTime = %v,%v, want 9,true", at, ok)
	}
}

// TestPeekTimeSkipsCanceled: canceled heads are discarded, not reported.
func TestPeekTimeSkipsCanceled(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(3, func() {})
	e.Schedule(7, func() {})
	ev.Cancel()
	if at, ok := e.PeekTime(); !ok || at != 7 {
		t.Fatalf("PeekTime = %v,%v, want 7,true", at, ok)
	}
	e.Run()
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime reports events on a drained engine")
	}
}
