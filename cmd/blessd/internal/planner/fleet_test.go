package planner

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// fleetPlanRequest is a small heterogeneous fleet with one scheduled live
// migration and the rebalancer enabled.
func fleetPlanRequest() FleetPlanRequest {
	return FleetPlanRequest{
		Seed: 7,
		Devices: []FleetDevice{
			{Name: "a100", SMs: 108, MemoryGB: 40},
			{Name: "a30", SMs: 80, MemoryGB: 24},
			{Name: "a10", SMs: 60, MemoryGB: 24},
		},
		Tenants: []FleetTenantPlan{
			{Name: "t0", App: "vgg11", Quota: 0.3, ThinkMS: 2},
			{Name: "t1", App: "resnet50", Quota: 0.3, ThinkMS: 2, SLOTargetMS: 120},
			{Name: "t2", App: "resnet101", Quota: 0.3, ThinkMS: 2},
			{Name: "t3", App: "bert", Quota: 0.3, ThinkMS: 2, SLOTargetMS: 200},
		},
		HorizonMS:  60,
		Migrations: []FleetMigrationPlan{{AtMS: 20, Tenant: "t0", Target: 1}},
		Rebalance:  true,
	}
}

// TestFleetRoute pins the placement-only answer: each tenant's device (or
// rejection reason) and each device's resulting subscription.
func TestFleetRoute(t *testing.T) {
	type load struct {
		tenants int
		quota   float64
		mem     int64
	}
	cases := []struct {
		name    string
		req     FleetRouteRequest
		assign  []FleetAssignment
		devices []load
	}{{
		// Least-loaded spreads the first two across the pool; the third
		// fits nowhere.
		name: "two-a100",
		req: FleetRouteRequest{
			Devices: []FleetDevice{{SMs: 108}, {SMs: 108}},
			Tenants: []FleetTenantPlan{
				{Name: "a", App: "vgg11", Quota: 0.4},
				{Name: "b", App: "resnet50", Quota: 0.4},
				{Name: "c", App: "resnet50", Quota: 0.9},
			},
		},
		assign: []FleetAssignment{
			{Tenant: "a", Device: 0},
			{Tenant: "b", Device: 1},
			{Tenant: "c", Device: -1, Reason: `fleet: admitting "c": no device fits: device gpu1: quota 0.40 + 0.90 exceeds capacity`},
		},
		devices: []load{{1, 0.4, 2327838720}, {1, 0.4, 1908408320}},
	}, {
		name: "mixed-classes",
		req: FleetRouteRequest{
			Devices: []FleetDevice{{SMs: 108}, {SMs: 108}, {Name: "a30", SMs: 80, MemoryGB: 24}},
			Tenants: []FleetTenantPlan{
				{Name: "a", App: "vgg11", Quota: 0.4},
				{Name: "b", App: "resnet50", Quota: 0.4},
				{Name: "c", App: "resnet50", Quota: 0.9},
				{Name: "d", App: "bert", Quota: 0.3},
				{Name: "e", App: "resnet101", Quota: 0.2},
				{Name: "f", App: "vgg11", Quota: 0.5},
				{App: "resnet50", Quota: 0.25},
			},
		},
		assign: []FleetAssignment{
			{Tenant: "a", Device: 0},
			{Tenant: "b", Device: 1},
			{Tenant: "c", Device: 2},
			{Tenant: "d", Device: 0},
			{Tenant: "e", Device: 1},
			{Tenant: "f", Device: -1, Reason: `fleet: admitting "f": no device fits: device a30: quota 0.90 + 0.50 exceeds capacity`},
			{Tenant: "t6", Device: 1},
		},
		devices: []load{{2, 0.7, 5075107840}, {3, 0.8500000000000001, 6249512960}, {1, 0.9, 1908408320}},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var reply FleetRouteReply
			if err := New().FleetRoute(tc.req, &reply); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reply.Assignments, tc.assign) {
				t.Errorf("assignments\n got %+v\nwant %+v", reply.Assignments, tc.assign)
			}
			if len(reply.Devices) != len(tc.devices) {
				t.Fatalf("device loads = %d, want %d", len(reply.Devices), len(tc.devices))
			}
			for i, want := range tc.devices {
				d := reply.Devices[i]
				if got := (load{d.Tenants, d.QuotaSubscribed, d.MemSubscribed}); got != want {
					t.Errorf("device %d subscription %+v, want %+v", i, got, want)
				}
			}
		})
	}
}

func TestFleetPlan(t *testing.T) {
	p := New()
	var reply FleetPlanReply
	if err := p.FleetPlan(fleetPlanRequest(), &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Violations) != 0 {
		t.Fatalf("violations: %v", reply.Violations)
	}
	if reply.Stats.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if reply.Stats.MigrationsCompleted == 0 {
		t.Error("scheduled migration never drained")
	}
	if reply.Digest == "" {
		t.Error("no determinism digest")
	}
	for _, tn := range reply.Tenants {
		if tn.Completed == 0 {
			t.Errorf("tenant %s completed nothing", tn.Name)
		}
	}
	// Same request, same digest.
	var again FleetPlanReply
	if err := p.FleetPlan(fleetPlanRequest(), &again); err != nil {
		t.Fatal(err)
	}
	if again.Digest != reply.Digest {
		t.Fatalf("digest not reproducible: %s vs %s", again.Digest, reply.Digest)
	}
}

func TestFleetMigrateRequiresMigrations(t *testing.T) {
	p := New()
	req := fleetPlanRequest()
	req.Migrations = nil
	var reply FleetPlanReply
	err := p.FleetMigrate(req, &reply)
	if err == nil || !strings.Contains(err.Error(), "at least one migration") {
		t.Fatalf("want migration-required error, got %v", err)
	}
	req = fleetPlanRequest()
	if err := p.FleetMigrate(req, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Stats.Migrations == 0 {
		t.Error("no migration recorded")
	}
}

func TestServeFleet(t *testing.T) {
	p := New()
	// 404 until a fleet plan ran.
	rec := httptest.NewRecorder()
	p.ServeFleet(rec, nil)
	if rec.Code != 404 {
		t.Fatalf("fleet endpoint before any plan: code %d, want 404", rec.Code)
	}

	var reply FleetPlanReply
	if err := p.FleetPlan(fleetPlanRequest(), &reply); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	p.ServeFleet(rec, nil)
	if rec.Code != 200 {
		t.Fatalf("fleet endpoint: code %d, want 200", rec.Code)
	}
	var body struct {
		Devices []struct {
			Device int     `json:"Device"`
			SMs    int     `json:"SMs"`
			Quota  float64 `json:"QuotaSubscribed"`
		} `json:"devices"`
		Tenants []struct {
			Name   string `json:"Name"`
			Device int    `json:"Device"`
		} `json:"tenants"`
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("fleet endpoint JSON: %v", err)
	}
	if len(body.Devices) != 3 {
		t.Errorf("devices = %d, want 3", len(body.Devices))
	}
	if len(body.Tenants) != 4 {
		t.Errorf("tenants = %d, want 4", len(body.Tenants))
	}
	if body.Digest != reply.Digest {
		t.Errorf("endpoint digest %s != reply digest %s", body.Digest, reply.Digest)
	}
}

func TestFleetPlanCrashStaysClean(t *testing.T) {
	p := New()
	req := fleetPlanRequest()
	req.DeviceCrashes = []FleetCrashPlan{{AtMS: 20, Device: 2}}
	var reply FleetPlanReply
	if err := p.FleetPlan(req, &reply); err != nil {
		t.Fatalf("crash plan must stay invariant-clean: %v", err)
	}
	if reply.Stats.DeviceCrashes != 1 {
		t.Errorf("device crashes = %d, want 1", reply.Stats.DeviceCrashes)
	}
}
