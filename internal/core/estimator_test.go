package core

import (
	"testing"

	"bless/internal/profiler"
	"bless/internal/sharing"
	"bless/internal/sim"
)

// estProfile builds a two-partition synthetic profile (10 and 20 SMs on a
// 20-SM device) with three kernels chosen for hand-checkable estimates:
//
//	k0: compute, 200ns@10 → 100ns@20, saturates the device (MaxSMs 20)
//	k1: compute, 400ns@10 → 200ns@20, saturates at 10 SMs (MaxSMs 10)
//	k2: memcpy, 50ns at every width (memory-management kernels are summed
//	    uniformly, §4.4.2)
func estProfile() *profiler.Profile {
	return &profiler.Profile{
		AppName:      "synthetic",
		Partitions:   2,
		DeviceSMs:    20,
		PartitionSMs: []int{10, 20},
		Kernels: []profiler.KernelProfile{
			{Dur: []sim.Time{200, 100}, MaxSMs: 20, IsCompute: true},
			{Dur: []sim.Time{400, 200}, MaxSMs: 10, IsCompute: true},
			{Dur: []sim.Time{50, 50}, MaxSMs: 0, IsCompute: false},
		},
	}
}

func estClient(p *profiler.Profile) *sharing.Client { return &sharing.Client{Profile: p} }

// TestEstimateSpatial: Equation 1 is the max over per-client kernel stacks,
// with zero-length stacks, memcpy kernels and interpolated SM widths handled.
func TestEstimateSpatial(t *testing.T) {
	p := estProfile()
	cases := []struct {
		name    string
		kernels [][]int
		smAlloc []int
		want    sim.Time
	}{
		{
			name:    "max of stacks",
			kernels: [][]int{{0, 1}, {0}},
			smAlloc: []int{10, 20},
			// client 0: 200 + 400 = 600 at 10 SMs; client 1: 100 at 20 SMs.
			want: 600,
		},
		{
			name:    "empty squad",
			kernels: nil,
			smAlloc: nil,
			want:    0,
		},
		{
			name:    "zero-length kernel run",
			kernels: [][]int{{}, {0}},
			smAlloc: []int{10, 20},
			want:    100,
		},
		{
			name:    "memcpy ignores allocation width",
			kernels: [][]int{{2, 2}},
			smAlloc: []int{10},
			// Memory-management kernels always contribute the full-GPU
			// measurement: 50 + 50.
			want: 100,
		},
		{
			name:    "interpolated width",
			kernels: [][]int{{0}},
			smAlloc: []int{15},
			// Linear between 200@10 and 100@20.
			want: 150,
		},
		{
			name:    "width clamps at device size",
			kernels: [][]int{{1}},
			smAlloc: []int{40},
			want:    200,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := &Squad{}
			for _, ks := range c.kernels {
				s.Entries = append(s.Entries, SquadEntry{Client: estClient(p), Kernels: ks})
			}
			if got := EstimateSpatial(s, c.smAlloc); got != c.want {
				t.Fatalf("EstimateSpatial = %d, want %d", got, c.want)
			}
		})
	}
}

// TestEstimateUnrestricted: Equation 2 sums breadth-first rounds at the
// group's combined active SM count, with the beta interference stretch
// applied only under oversubscription and capped at 2x.
func TestEstimateUnrestricted(t *testing.T) {
	p := estProfile()
	cases := []struct {
		name    string
		kernels [][]int
		beta    float64
		want    sim.Time
	}{
		{
			name:    "overlapped group shares combined SMs",
			kernels: [][]int{{0}, {0}},
			beta:    0,
			// raw = 20+20 clamps to the 20-SM device; each kernel runs at its
			// saturated 100ns: 200 total.
			want: 200,
		},
		{
			name:    "unbounded extrapolation past saturation",
			kernels: [][]int{{1}, {1}},
			beta:    0,
			// raw = 10+10 = 20; k1 saturates at 10 SMs so its duration keeps
			// shrinking: 200 * 10/20 = 100 each.
			want: 200,
		},
		{
			name:    "beta stretches oversubscribed rounds",
			kernels: [][]int{{0}, {0}},
			beta:    0.5,
			// Oversubscription (40-20)/20 = 1: stretch 1.5 over the 200.
			want: 300,
		},
		{
			name:    "stretch caps at 2x",
			kernels: [][]int{{0}, {0}},
			beta:    50,
			want:    400,
		},
		{
			name:    "no stretch without oversubscription",
			kernels: [][]int{{1}},
			beta:    0.5,
			// raw = 10 <= 20: pure Equation 2, k1 at 10 SMs.
			want: 400,
		},
		{
			name:    "memcpy-only round clamps combined SMs to one",
			kernels: [][]int{{2}, {2}},
			beta:    0,
			// raw = 0 (no compute): combined clamps to 1, memcpy still
			// contributes its fixed 50ns each.
			want: 100,
		},
		{
			name:    "uneven run lengths pad shorter entries",
			kernels: [][]int{{0, 1}, {0}},
			beta:    0,
			// Round 0: raw 40 → 20 SMs, 100+100. Round 1: only k1 at its own
			// raw 10 SMs: 400.
			want: 600,
		},
		{
			name:    "empty squad",
			kernels: nil,
			beta:    1,
			want:    0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := &Squad{}
			for _, ks := range c.kernels {
				s.Entries = append(s.Entries, SquadEntry{Client: estClient(p), Kernels: ks})
			}
			if got := EstimateUnrestricted(s, p.DeviceSMs, c.beta); got != c.want {
				t.Fatalf("EstimateUnrestricted = %d, want %d", got, c.want)
			}
		})
	}
}

// TestEstimatorsAgreeOnSaturatingSolo: for a lone client whose kernels
// saturate the device, the two predictors describe identical physics — every
// round's combined active SMs equals the full device, so Equation 2
// degenerates to Equation 1's single stack — and neither estimate can grow
// when kernels are dropped.
func TestEstimatorsAgreeOnSaturatingSolo(t *testing.T) {
	p := estProfile()
	s := &Squad{Entries: []SquadEntry{{Client: estClient(p), Kernels: []int{0, 0, 0}}}}
	spatial := EstimateSpatial(s, []int{p.DeviceSMs})
	unres := EstimateUnrestricted(s, p.DeviceSMs, 0.5)
	if spatial != unres {
		t.Fatalf("saturating solo squad: spatial %d != unrestricted %d", spatial, unres)
	}
	small := &Squad{Entries: []SquadEntry{{Client: estClient(p), Kernels: []int{0}}}}
	if EstimateSpatial(small, []int{p.DeviceSMs}) > spatial {
		t.Fatal("dropping kernels increased the spatial estimate")
	}
	if EstimateUnrestricted(small, p.DeviceSMs, 0.5) > unres {
		t.Fatal("dropping kernels increased the unrestricted estimate")
	}
}

// refSpatial is Equation 1 as a plain per-kernel loop, the reference the
// prefix-table path must reproduce exactly.
func refSpatial(s *Squad, smAlloc []int) sim.Time {
	var worst sim.Time
	for i, e := range s.Entries {
		var stack sim.Time
		for _, k := range e.Kernels {
			stack += e.Client.Profile.KernelDurAt(k, smAlloc[i])
		}
		worst = max(worst, stack)
	}
	return worst
}

// TestEstimateSpatialMatchesKernelLoop: the O(1) prefix-table lookup and
// its per-kernel fallback agree with the plain loop on contiguous runs at
// every grid split, non-contiguous lists, empty entries, off-grid widths,
// a profile measured on a different device size, and hand-built profiles
// that carry no table.
func TestEstimateSpatialMatchesKernelLoop(t *testing.T) {
	clients := testClients(t, []float64{0.5, 0.5}, "nasnet", "bert")
	app := clients[0].App
	small := sim.DefaultConfig()
	small.SMs = 96
	p96, err := profiler.ProfileApp(app, profiler.Options{Config: small})
	if err != nil {
		t.Fatal(err)
	}
	other := &sharing.Client{App: app, Profile: p96}
	lit := estClient(estProfile())

	run := func(first, n int) []int {
		ks := make([]int, n)
		for i := range ks {
			ks[i] = first + i
		}
		return ks
	}
	cases := []struct {
		name    string
		clients []*sharing.Client
		kernels [][]int
	}{
		{"contiguous", clients, [][]int{run(17, 50), run(200, 33)}},
		{"contiguous from zero", clients, [][]int{run(0, 1), run(0, 120)}},
		{"non-contiguous", clients, [][]int{{0, 0, 0}, {5, 4, 9}}},
		{"empty entry", clients, [][]int{{}, run(3, 10)}},
		{"other device size", []*sharing.Client{other, clients[1]}, [][]int{run(40, 60), run(0, 5)}},
		{"hand-built profile", []*sharing.Client{lit, lit}, [][]int{{0, 1}, {1, 2}}},
		{"hand-built non-contiguous", []*sharing.Client{lit, lit}, [][]int{{0, 0, 0}, {2}}},
	}
	const n = 18
	for _, c := range cases {
		s := &Squad{}
		for i, ks := range c.kernels {
			s.Entries = append(s.Entries, SquadEntry{Client: c.clients[i], Kernels: ks})
		}
		device := c.clients[0].Profile.DeviceSMs
		var splits [][]int
		for p := 1; p < n; p++ {
			splits = append(splits, []int{device * p / n, device * (n - p) / n})
		}
		splits = append(splits, []int{50, 58}, []int{1, 107}, []int{0, 200}, []int{15, 10})
		for _, sms := range splits {
			if got, want := EstimateSpatial(s, sms), refSpatial(s, sms); got != want {
				t.Errorf("%s at %v: EstimateSpatial = %d, per-kernel loop %d", c.name, sms, got, want)
			}
		}
	}
}
