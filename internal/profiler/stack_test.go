package profiler

import (
	"bytes"
	"math/rand"
	"testing"

	"bless/internal/model"
	"bless/internal/sim"
)

// sumDurAt is the reference the prefix table must reproduce: the per-kernel
// sum of KernelDurAt over [first, end).
func sumDurAt(p *Profile, first, end, sms int) sim.Time {
	var d sim.Time
	for k := first; k < end; k++ {
		d += p.KernelDurAt(k, sms)
	}
	return d
}

// TestStackAtMatchesKernelSums: for every catalog app and every partition,
// StackAt over random kernel ranges (empty, single-kernel and full ranges
// included) equals the summed KernelDurAt, bit for bit — on the A100 grid
// and on a grid whose widths do not divide the device evenly.
func TestStackAtMatchesKernelSums(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	uneven := sim.DefaultConfig()
	uneven.SMs = 100
	for _, name := range model.Names() {
		for _, opts := range []Options{{}, {Partitions: 7, Config: uneven}} {
			testStackAt(t, rng, name, opts)
		}
	}
}

// testStackAt profiles one app and checks StackAt against sumDurAt at every
// partition width over random kernel ranges.
func testStackAt(t *testing.T, rng *rand.Rand, name string, opts Options) {
	t.Helper()
	p, err := ProfileApp(model.MustGet(name), opts)
	if err != nil {
		t.Fatal(err)
	}
	nk := p.NumKernels()
	for _, sms := range p.PartitionSMs {
		ranges := [][2]int{{0, 0}, {0, nk}, {nk - 1, nk}, {nk, nk}}
		for i := 0; i < 20; i++ {
			a, b := rng.Intn(nk+1), rng.Intn(nk+1)
			ranges = append(ranges, [2]int{min(a, b), max(a, b)})
		}
		for _, r := range ranges {
			got, ok := p.StackAt(r[0], r[1], sms)
			if !ok {
				t.Fatalf("%s/%d SMs: StackAt(%d,%d,%d) missed the table on a grid width", name, p.DeviceSMs, r[0], r[1], sms)
			}
			if want := sumDurAt(p, r[0], r[1], sms); got != want {
				t.Fatalf("%s/%d SMs: StackAt(%d,%d,%d) = %d, want %d", name, p.DeviceSMs, r[0], r[1], sms, got, want)
			}
		}
	}
}

// TestStackAtDeclines: off-grid widths and profiles without a table report
// ok=false, leaving the per-kernel sum to the caller; Load rebuilds the
// table for a saved profile.
func TestStackAtDeclines(t *testing.T) {
	p := profR50(t)
	for _, sms := range []int{0, 1, 50, 107, 109} {
		if _, ok := p.StackAt(0, 10, sms); ok {
			t.Errorf("StackAt at off-grid width %d answered from the table", sms)
		}
	}
	bare := *p
	bare.stack = nil
	if _, ok := bare.StackAt(0, 10, 54); ok {
		t.Error("profile without a table answered StackAt")
	}

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := loaded.StackAt(3, 40, 54)
	if want := sumDurAt(loaded, 3, 40, 54); !ok || got != want {
		t.Fatalf("loaded profile: StackAt = %d (ok %v), want %d from the table", got, ok, want)
	}
}
