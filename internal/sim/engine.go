// Package sim implements a deterministic discrete-event simulator of a
// multi-context GPU, the execution substrate for the BLESS reproduction.
//
// The simulated device follows the general GPU-sharing workflow of the paper
// (§3.1): host-side schedulers create contexts with SM-affinity restrictions,
// enqueue kernels into per-context device queues, and the hardware scheduler
// dispatches blocks of the queue-head kernels onto streaming multiprocessors
// (SMs). Kernels within one queue are serialized; kernels across queues run
// concurrently, capped by their context's SM limit and slowed by memory
// bandwidth contention. Memory-management kernels (H2D/D2H copies) run on a
// DMA engine and contend for PCIe bandwidth.
//
// All time is virtual: an int64 nanosecond clock driven by an event heap.
// Simulations are fully deterministic, which the test-suite and the benchmark
// harness rely on.
package sim

import (
	"fmt"
	"sort"
)

// Time is a virtual-time instant, in nanoseconds since simulation start.
type Time int64

// Duration constants for readable virtual-time arithmetic.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// String formats the instant with microsecond precision, e.g. "12.345ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%v", -t)
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3gus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", float64(t)/float64(Second))
	}
}

// Milliseconds returns the instant as a float64 count of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds returns the instant as a float64 count of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Event is a scheduled callback. The zero Event is invalid; events are
// created through Engine.Schedule, may be moved with Engine.Rearm while
// pending, and may be revoked with Cancel.
//
// Event objects are pooled: once an event has fired (its callback returned)
// or has been canceled and subsequently discarded by the engine, its handle
// is dead and the object may back a future Schedule call. Holding a handle
// past that point and calling Cancel or Rearm on it would act on an
// unrelated later event — release (nil out) stored handles no later than
// inside the firing callback, as GPU.completion and the temporal baseline's
// slice timer do. A rearmed event stays live until it fires or is canceled.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	ser      *series // non-nil: the queued element of a ScheduleSeries
	canceled bool
	index    int // heap index, -1 once popped
}

// series is one ScheduleSeries call: a run of callbacks at non-decreasing
// times, of which only the next element sits in the heap.
type series struct {
	ats   []Time
	floor Time   // clock at the ScheduleSeries call; earlier times fire then
	seq   uint64 // sequence number reserved for ats[0]
	next  int    // index of the queued element
	fn    func(i int)
}

// key returns element i's heap key: the (at, seq) that the i-th of len(ats)
// Schedule calls made at the ScheduleSeries instant would have drawn.
func (s *series) key(i int) (Time, uint64) {
	return max(s.ats[i], s.floor), s.seq + uint64(i)
}

// Cancel revokes the event. Canceling an already-fired or already-canceled
// event is a no-op. Cancel is safe to call from within event callbacks.
func (e *Event) Cancel() {
	if e != nil {
		e.canceled = true
	}
}

// At reports the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// before orders events by (at, seq). Every Schedule and Rearm draws a fresh
// seq and every series element a reserved one, so keys are unique and the
// pop order does not depend on heap layout.
func (e *Event) before(o *Event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventHeap is a binary min-heap of pending events that keeps each event's
// index current, so Rearm can restore order in place.
type eventHeap []*Event

// up and down sift h[i] toward the root or the leaves, moving the other
// events into the hole rather than swapping pairs.
func (h eventHeap) up(i int) {
	ev := h[i]
	for p := (i - 1) / 2; i > 0 && ev.before(h[p]); p = (i - 1) / 2 {
		h[i], h[p].index = h[p], i
		i = p
	}
	h[i], ev.index = ev, i
}

func (h eventHeap) down(i int) {
	ev := h[i]
	for c := 2*i + 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(ev) {
			break
		}
		h[i], h[c].index = h[c], i
		i = c
	}
	h[i], ev.index = ev, i
}

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *Event {
	old := *h
	n := len(old) - 1
	ev := old[0]
	old[0], old[n] = old[n], nil
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	ev.index = -1
	return ev
}

// Engine is a discrete-event simulation loop: a virtual clock plus a heap of
// timed callbacks. Callbacks run strictly in time order (FIFO among equal
// times) and may schedule further events. Engine is not safe for concurrent
// use; the whole simulation is single-threaded by design.
type Engine struct {
	now     Time
	seq     uint64
	events  eventHeap
	stopped bool
	free    []*Event // recycled events backing future Schedule calls
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule registers fn to run at virtual time at. If at is in the past, the
// event fires at the current time (never before already-pending earlier
// events). The returned Event may be canceled or rearmed.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	ev := e.newEvent()
	ev.fn = fn
	e.stamp(ev, at)
	e.events.push(ev)
	return ev
}

// ScheduleSeries registers fn(i) to run at each time ats[i]. The times must
// be non-decreasing; ScheduleSeries panics otherwise. It fires every element
// in exactly the order len(ats) Schedule calls made now would: it reserves
// their sequence numbers at once, and times already past fire at the current
// time. Only the next element is queued, though — element i+1 enters the
// heap when element i fires — so a long arrival schedule neither deepens the
// heap nor holds a closure per element. The series cannot be canceled, and
// ats must not be modified until its last element has fired.
func (e *Engine) ScheduleSeries(ats []Time, fn func(i int)) {
	for i := 1; i < len(ats); i++ {
		if ats[i] < ats[i-1] {
			panic(fmt.Sprintf("sim: ScheduleSeries times decrease at %d: %v < %v", i, ats[i], ats[i-1]))
		}
	}
	if len(ats) == 0 {
		return
	}
	s := &series{ats: ats, floor: e.now, seq: e.seq, fn: fn}
	e.seq += uint64(len(ats))
	ev := e.newEvent()
	ev.ser = s
	ev.at, ev.seq = s.key(0)
	e.events.push(ev)
}

// newEvent takes a reset event from the pool, or allocates one.
func (e *Engine) newEvent() *Event {
	n := len(e.free)
	if n == 0 {
		return new(Event)
	}
	ev := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	ev.canceled = false
	return ev
}

// Rearm moves the pending event ev to time at. It draws the next sequence
// number exactly as Cancel followed by Schedule would, so every event fires
// in the same order as under that pair — but ev stays the live handle and no
// canceled event is left in the heap. ev must be pending: scheduled, not yet
// fired and not canceled.
func (e *Engine) Rearm(ev *Event, at Time) {
	if ev.index < 0 || ev.canceled {
		panic("sim: Rearm of an event that is not pending")
	}
	e.stamp(ev, at)
	e.events.up(ev.index)
	e.events.down(ev.index)
}

// stamp keys ev at time at, clamped to now, with the next sequence number.
func (e *Engine) stamp(ev *Event, at Time) {
	ev.at, ev.seq = max(at, e.now), e.seq
	e.seq++
}

// recycle returns a dead (fired or canceled-and-popped) event to the pool.
func (e *Engine) recycle(ev *Event) {
	ev.fn, ev.ser = nil, nil // release the closures
	e.free = append(e.free, ev)
}

// After registers fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) *Event {
	return e.Schedule(e.now+d, fn)
}

// Pending reports the number of queued (possibly canceled) events. A series
// counts only its queued element, not the elements still to come.
func (e *Engine) Pending() int { return len(e.events) }

// Stop makes the currently running Run/RunUntil call return after the
// in-flight callback completes. Pending events stay queued.
func (e *Engine) Stop() { e.stopped = true }

// peekLive discards canceled events from the top of the heap and returns the
// earliest live one, or nil when none is queued.
func (e *Engine) peekLive() *Event {
	for len(e.events) > 0 {
		if ev := e.events[0]; !ev.canceled {
			return ev
		}
		e.recycle(e.events.pop())
	}
	return nil
}

// Step fires the earliest pending non-canceled event and advances the clock
// to its timestamp. It reports whether an event fired.
func (e *Engine) Step() bool {
	ev := e.peekLive()
	if ev == nil {
		return false
	}
	e.events.pop()
	e.now = ev.at
	if s := ev.ser; s != nil {
		// Queue the series' next element under its reserved key before the
		// callback runs, reusing this event; recycle it after the last.
		i := s.next
		if s.next++; s.next < len(s.ats) {
			ev.at, ev.seq = s.key(s.next)
			e.events.push(ev)
			s.fn(i)
			return true
		}
		s.fn(i)
	} else {
		ev.fn()
	}
	e.recycle(ev)
	return true
}

// Run fires events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then sets the clock to
// the deadline (if it has not already passed it) and returns. Events beyond
// the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) { e.runTo(deadline, true) }

// RunBefore fires events with timestamps strictly earlier than deadline,
// then sets the clock to exactly deadline and returns. Events at or past the
// deadline stay queued and fire in a later window. This is the window
// primitive of the fleet simulation: the device engine runs [now, deadline),
// and cross-device work is applied at the barrier with the clock at exactly
// deadline.
func (e *Engine) RunBefore(deadline Time) { e.runTo(deadline, false) }

// runTo fires live events earlier than deadline (and at it, when inclusive)
// until Stop, then lifts the clock to deadline.
func (e *Engine) runTo(deadline Time, inclusive bool) {
	e.stopped = false
	for !e.stopped {
		ev := e.peekLive()
		if ev == nil || ev.at > deadline || (ev.at == deadline && !inclusive) {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// PendingTimes appends the timestamps of every live (non-canceled) pending
// event to buf, in ascending order, and returns the extended slice. A series
// contributes every element it has yet to fire, queued or not. It is the
// engine's canonical queue view for snapshotting: callbacks are closures and
// cannot be serialized, but their firing instants can — two runs whose
// engines agree on PendingTimes at a barrier hold the same schedule. The
// heap is not disturbed; canceled events are skipped, not collected.
func (e *Engine) PendingTimes(buf []Time) []Time {
	start := len(buf)
	for _, ev := range e.events {
		switch {
		case ev.canceled:
		case ev.ser != nil:
			for i := ev.ser.next; i < len(ev.ser.ats); i++ {
				at, _ := ev.ser.key(i)
				buf = append(buf, at)
			}
		default:
			buf = append(buf, ev.at)
		}
	}
	tail := buf[start:]
	sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })
	return buf
}

// PeekTime reports the timestamp of the earliest live (non-canceled) pending
// event. ok is false when no live event is queued.
func (e *Engine) PeekTime() (at Time, ok bool) {
	if ev := e.peekLive(); ev != nil {
		return ev.at, true
	}
	return 0, false
}
