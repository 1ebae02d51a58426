package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// seriesScript drives one engine through a seeded random interleaving of
// Schedule, Cancel, Rearm, Step and series starts, then drains it. A series
// is a run of 1–8 times with gaps of 0–2ns (same-instant ties within it),
// starting up to 5ns in the past (the clamp to now); with asSeries it is one
// ScheduleSeries call, else one Schedule call per element. Several series
// are usually pending at once, and every fifth firing starts another series
// from inside its callback. Series elements and single events get distinct
// script ids, so the two modes must produce the same firing list.
func seriesScript(seed int64, asSeries bool) []firing {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	var fired []firing
	var handles []*Event // single events by id; nil once fired or canceled
	nextID := 0

	var startSeries func()
	onFire := func(id int) {
		fired = append(fired, firing{e.Now(), id})
		if id%5 == 0 {
			startSeries()
		}
	}
	startSeries = func() {
		ats := make([]Time, 1+rng.Intn(8))
		t := e.Now() + Time(rng.Intn(30)) - 5
		for i := range ats {
			t += Time(rng.Intn(3))
			ats[i] = t
		}
		base := nextID
		nextID += len(ats)
		if asSeries {
			e.ScheduleSeries(ats, func(i int) { onFire(base + i) })
			return
		}
		for i, at := range ats {
			e.Schedule(at, func() { onFire(base + i) })
		}
	}
	schedule := func(at Time) {
		id := nextID
		nextID++
		slot := len(handles)
		handles = append(handles, e.Schedule(at, func() {
			handles[slot] = nil
			onFire(id)
		}))
	}
	pickLive := func() int {
		var ids []int
		for i, h := range handles {
			if h != nil {
				ids = append(ids, i)
			}
		}
		if len(ids) == 0 {
			return -1
		}
		return ids[rng.Intn(len(ids))]
	}

	for step := 0; step < 1500; step++ {
		at := e.Now() + Time(rng.Intn(40)) - 5
		switch r := rng.Intn(10); {
		case r < 2:
			schedule(at)
		case r < 4:
			startSeries()
		case r == 4:
			if i := pickLive(); i >= 0 {
				handles[i].Cancel()
				handles[i] = nil
			}
		case r == 5:
			if i := pickLive(); i >= 0 {
				e.Rearm(handles[i], at)
			}
		default:
			e.Step()
		}
	}
	e.Run()
	return fired
}

// TestScheduleSeriesMatchesSchedule: a series fires every element at the same
// time and in the same order, relative to every other event, as one Schedule
// call per element made at the series' start — across ties, interleaved
// series, series started from callbacks, cancels and re-arms.
func TestScheduleSeriesMatchesSchedule(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got := seriesScript(seed, true)
		want := seriesScript(seed, false)
		if len(want) == 0 {
			t.Fatalf("seed %d: script fired nothing", seed)
		}
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: firing %d = %+v as a series, %+v as Schedule calls", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: %d firings as a series, %d as Schedule calls", seed, len(got), len(want))
		}
	}
}

// TestScheduleSeriesQueuesOneElement: a series occupies one heap slot however
// long it is, while PendingTimes still reports every element yet to fire.
func TestScheduleSeriesQueuesOneElement(t *testing.T) {
	e := NewEngine()
	ats := []Time{10, 10, 20, 30, 30, 40}
	var got []int
	e.ScheduleSeries(ats, func(i int) { got = append(got, i) })
	e.Schedule(25, func() {})
	if n := e.Pending(); n != 2 {
		t.Fatalf("Pending = %d, want 2 (the series' queued element plus one event)", n)
	}
	e.RunUntil(20)
	if want := []int{0, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("fired %v by t=20, want %v", got, want)
	}
	if pt, want := e.PendingTimes(nil), []Time{25, 30, 30, 40}; !slices.Equal(pt, want) {
		t.Fatalf("PendingTimes = %v, want %v", pt, want)
	}
	e.Run()
	if len(got) != len(ats) || e.Pending() != 0 {
		t.Fatalf("after drain: fired %d of %d, %d pending", len(got), len(ats), e.Pending())
	}
	e.ScheduleSeries(nil, func(int) { t.Fatal("empty series fired") })
	if e.Pending() != 0 {
		t.Fatal("an empty series queued an event")
	}
}

// TestScheduleSeriesRejectsDecreasingTimes: out-of-order times panic at the
// call, before anything is queued.
func TestScheduleSeriesRejectsDecreasingTimes(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleSeries accepted decreasing times")
		}
		if e.Pending() != 0 {
			t.Fatalf("a rejected series left %d events queued", e.Pending())
		}
	}()
	e.ScheduleSeries([]Time{5, 7, 6}, func(int) {})
}
