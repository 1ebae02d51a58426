package core

import (
	"math/rand"
	"sort"
	"testing"

	"bless/internal/sim"
)

// entryMajorPlan is the reference launch plan: each entry's launches in
// kernel order (restricted head, then gated tail), entries in squad order,
// then stably sorted by position within the entry — breadth-first with
// entry order breaking ties.
func entryMajorPlan(s *Squad, routes []entryRoute) []plannedLaunch {
	var plan []plannedLaunch
	for i := range s.Entries {
		e, r := &s.Entries[i], routes[i]
		for j, k := range e.Kernels {
			pl := plannedLaunch{entry: e, ei: i, kIdx: k, q: r.head, smTag: r.smTag}
			if j >= r.split {
				pl.q, pl.smTag, pl.after = r.tail, 0, r.gate
			}
			plan = append(plan, pl)
		}
	}
	sort.SliceStable(plan, func(a, b int) bool {
		return plan[a].kIdx-plan[a].entry.Kernels[0] < plan[b].kIdx-plan[b].entry.Kernels[0]
	})
	return plan
}

// TestAppendPlanMatchesStableSort: on random squads of 1–4 entries with
// varied window lengths and offsets, mixing unrestricted, strict-SP and
// Semi-SP routes, appendPlan builds exactly the stably sorted entry-major
// plan, appending after whatever the reused buffer already holds.
func TestAppendPlanMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	buf := make([]plannedLaunch, 0, 4)
	for iter := 0; iter < 500; iter++ {
		s := &Squad{}
		var routes []entryRoute
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			first, size := rng.Intn(50), 1+rng.Intn(12)
			ks := make([]int, size)
			for j := range ks {
				ks[j] = first + j
			}
			s.Entries = append(s.Entries, SquadEntry{Kernels: ks})
			def := new(sim.Queue)
			r := entryRoute{head: def, tail: def, split: size}
			switch rng.Intn(3) {
			case 1: // strict SP: the whole entry restricted
				r.head, r.smTag = new(sim.Queue), 27*(1+rng.Intn(3))
			case 2: // Semi-SP: a restricted head, a gated tail
				r.head, r.smTag = new(sim.Queue), 27*(1+rng.Intn(3))
				if size > 1 {
					r.split = 1 + rng.Intn(size-1)
					r.gate = &launchGate{expect: r.split}
				}
			}
			routes = append(routes, r)
		}
		want := entryMajorPlan(s, routes)
		stale := plannedLaunch{kIdx: -1}
		buf = append(buf[:0], stale)
		got := appendPlan(buf, s, routes)
		if got[0] != stale || len(got)-1 != len(want) {
			t.Fatalf("iter %d: plan of %d launches (prefix kept: %v), want %d", iter, len(got)-1, got[0] == stale, len(want))
		}
		for i := range want {
			if got[i+1] != want[i] {
				t.Fatalf("iter %d: launch %d = %+v, want %+v", iter, i, got[i+1], want[i])
			}
		}
		buf = got
	}
}
