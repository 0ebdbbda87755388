package netsim

import (
	"errors"
	"testing"

	"dsnet/internal/core"
	"dsnet/internal/traffic"
)

func TestWatchdogConfigValidation(t *testing.T) {
	cfg := Default()
	cfg.WatchdogCycles = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative WatchdogCycles passed validation")
	}
	cfg.WatchdogCycles = 0 // zero selects the built-in default
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorsValidation(t *testing.T) {
	g := torusGraph(t)
	cfg := shortCfg()
	rt, err := NewDuatoUpDown(g, cfg.VCs)
	if err != nil {
		t.Fatal(err)
	}
	pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
	sp := Spec{Config: cfg, Graph: g, Router: rt, Pattern: pat, Rate: 0.05}
	for _, m := range []Monitors{{HopTTL: -1}, {MaxHOLWaitCycles: -1}} {
		sp.Monitors = m
		if _, err := New(sp); err == nil {
			t.Fatalf("monitors %+v accepted", m)
		}
	}
	sp.Monitors = Monitors{Conservation: true}
	s, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorsCleanRun: a healthy fabric below saturation trips none of
// the monitors, even with tight-but-sound bounds armed.
func TestMonitorsCleanRun(t *testing.T) {
	g := torusGraph(t)
	cfg := shortCfg()
	rt, err := NewUpDownOnly(g, cfg.VCs)
	if err != nil {
		t.Fatal(err)
	}
	pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
	mon := Monitors{
		HopTTL:           int32(rt.HopBound()),
		MaxHOLWaitCycles: 100000,
		Conservation:     true,
	}
	s, err := New(Spec{Config: cfg, Graph: g, Router: rt, Pattern: pat, Rate: 0.03, Monitors: mon})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("monitored clean run failed: %v", err)
	}
	if res.DeliveredTotal == 0 {
		t.Fatal("nothing delivered")
	}
	if res.MaxHOLWaitCycles < 0 {
		t.Fatalf("negative MaxHOLWaitCycles %d", res.MaxHOLWaitCycles)
	}
}

// TestHopTTLMonitorTrips arms an absurdly tight TTL so any multi-hop
// packet violates it, and checks the violation shape.
func TestHopTTLMonitorTrips(t *testing.T) {
	g := torusGraph(t)
	cfg := shortCfg()
	rt, err := NewDuatoUpDown(g, cfg.VCs)
	if err != nil {
		t.Fatal(err)
	}
	pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
	s, err := New(Spec{Config: cfg, Graph: g, Router: rt, Pattern: pat, Rate: 0.05, Monitors: Monitors{HopTTL: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := s.Run()
	if runErr == nil {
		t.Fatal("1-hop TTL on an 8x8 torus did not trip")
	}
	mon, ok := ViolatedMonitor(runErr)
	if !ok || mon != MonitorHopTTL {
		t.Fatalf("ViolatedMonitor(%v) = %q, %v; want %q", runErr, mon, ok, MonitorHopTTL)
	}
	var mv *MonitorViolation
	if !errors.As(runErr, &mv) {
		t.Fatalf("not a *MonitorViolation: %v", runErr)
	}
	if mv.Packet < 0 {
		t.Fatalf("violation names no packet: %+v", mv)
	}
}

// TestHOLWaitMonitorTrips arms a sub-cycle head-of-line bound at a rate
// high enough that some packet must queue, and checks the violation.
func TestHOLWaitMonitorTrips(t *testing.T) {
	g := torusGraph(t)
	cfg := shortCfg()
	rt, err := NewDuatoUpDown(g, cfg.VCs)
	if err != nil {
		t.Fatal(err)
	}
	pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
	s, err := New(Spec{Config: cfg, Graph: g, Router: rt, Pattern: pat, Rate: 0.40, Monitors: Monitors{MaxHOLWaitCycles: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := s.Run()
	if runErr == nil {
		t.Fatal("1-cycle HOL bound at 0.40 offered load did not trip")
	}
	if mon, ok := ViolatedMonitor(runErr); !ok || mon != MonitorHOLWait {
		t.Fatalf("ViolatedMonitor(%v) = %q, %v; want %q", runErr, mon, ok, MonitorHOLWait)
	}
}

// Wormhole engine: same monitor plumbing, same contract.
func TestWormholeMonitors(t *testing.T) {
	g := torusGraph(t)
	cfg := shortCfg()
	rt, err := NewUpDownOnly(g, cfg.VCs)
	if err != nil {
		t.Fatal(err)
	}
	pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}

	mon := Monitors{HopTTL: int32(rt.HopBound()), MaxHOLWaitCycles: 100000, Conservation: true}
	clean, err := New(Spec{Wormhole: true, Config: cfg, Graph: g, Router: rt, Pattern: pat, Rate: 0.03, Monitors: mon})
	if err != nil {
		t.Fatal(err)
	}
	res, err := clean.Run()
	if err != nil {
		t.Fatalf("monitored clean wormhole run failed: %v", err)
	}
	if res.DeliveredTotal == 0 {
		t.Fatal("nothing delivered")
	}

	ttl, err := New(Spec{Wormhole: true, Config: cfg, Graph: g, Router: rt, Pattern: pat, Rate: 0.05, Monitors: Monitors{HopTTL: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, runErr := ttl.Run(); runErr == nil {
		t.Fatal("1-hop TTL did not trip in the wormhole engine")
	} else if mon, ok := ViolatedMonitor(runErr); !ok || mon != MonitorHopTTL {
		t.Fatalf("ViolatedMonitor(%v) = %q, %v; want %q", runErr, mon, ok, MonitorHopTTL)
	}
}

func TestHopBounds(t *testing.T) {
	d, err := core.NewV(36)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewDSNSourceRouted(d)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rt.HopBound(), d.RoutingDiameterBound(); got != want {
		t.Fatalf("DSNSourceRouted.HopBound() = %d, want 3p+r = %d", got, want)
	}
	g := torusGraph(t)
	udo, err := NewUpDownOnly(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if udo.HopBound() <= 0 {
		t.Fatalf("UpDownOnly.HopBound() = %d", udo.HopBound())
	}
	// Interface satisfaction is part of the contract.
	var _ HopBounder = rt
	var _ HopBounder = udo
}
