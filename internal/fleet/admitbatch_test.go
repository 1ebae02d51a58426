package fleet

import (
	"strings"
	"testing"
)

// TestAdmitBatch: a valid batch admits atomically-validated and in order.
func TestAdmitBatch(t *testing.T) {
	f := pool(t, 2, nil)
	specs := []TenantSpec{
		{Name: "a", App: "resnet50", Quota: 0.4},
		{Name: "b", App: "vgg11", Quota: 0.4},
		{Name: "c", App: "resnet50", Quota: 0.4},
	}
	n, err := f.AdmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(specs) {
		t.Fatalf("admitted %d, want %d", n, len(specs))
	}
	snap := f.Snapshot()
	if len(snap.Tenants) != len(specs) {
		t.Fatalf("fleet holds %d tenants, want %d", len(snap.Tenants), len(specs))
	}
}

// TestAdmitBatchValidatesUpFront: any invalid spec rejects the whole batch
// before a single tenant places.
func TestAdmitBatchValidatesUpFront(t *testing.T) {
	f := pool(t, 2, nil)
	if err := f.Admit(TenantSpec{Name: "incumbent", App: "resnet50", Quota: 0.3}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		specs []TenantSpec
		want  string
	}{
		{"empty name", []TenantSpec{{App: "resnet50", Quota: 0.3}}, "needs a name"},
		{"within-batch dup", []TenantSpec{
			{Name: "x", App: "resnet50", Quota: 0.3},
			{Name: "x", App: "vgg11", Quota: 0.3},
		}, "twice"},
		{"existing tenant", []TenantSpec{
			{Name: "y", App: "resnet50", Quota: 0.3},
			{Name: "incumbent", App: "vgg11", Quota: 0.3},
		}, "already admitted"},
		{"quota range", []TenantSpec{
			{Name: "y", App: "resnet50", Quota: 0.3},
			{Name: "z", App: "vgg11", Quota: 1.5},
		}, "outside"},
	}
	for _, tc := range cases {
		n, err := f.AdmitBatch(tc.specs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want mention of %q", tc.name, err, tc.want)
		}
		if n != 0 {
			t.Errorf("%s: %d tenants admitted before validation failure", tc.name, n)
		}
		if got := len(f.Snapshot().Tenants); got != 1 {
			t.Fatalf("%s: fleet mutated to %d tenants by rejected batch", tc.name, got)
		}
	}
}

// TestAdmitBatchStopsAtCapacity: when the pool runs out mid-batch, the
// error names where admission stopped and the prefix stays admitted.
func TestAdmitBatchStopsAtCapacity(t *testing.T) {
	f := pool(t, 1, nil)
	specs := []TenantSpec{
		{Name: "a", App: "resnet50", Quota: 0.6},
		{Name: "b", App: "vgg11", Quota: 0.6},
	}
	n, err := f.AdmitBatch(specs)
	if err == nil {
		t.Fatal("over-capacity batch admitted in full")
	}
	if !strings.Contains(err.Error(), "stopped at 1/2") {
		t.Errorf("error does not locate the stop: %v", err)
	}
	if n != 1 {
		t.Errorf("admitted %d, want the 1-tenant prefix", n)
	}
	if got := len(f.Snapshot().Tenants); got != 1 {
		t.Errorf("fleet holds %d tenants, want 1", got)
	}
}
