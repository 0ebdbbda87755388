package dsnet

import (
	"strings"
	"testing"
)

// The facade must expose a coherent end-to-end workflow: build, analyze,
// lay out, simulate.
func TestFacadeEndToEnd(t *testing.T) {
	d, err := NewDSN(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Graph().N() != 64 {
		t.Fatal("facade DSN wrong size")
	}
	m := d.Graph().AllPairs()
	if !m.Connected || m.Diameter == 0 {
		t.Fatalf("metrics %+v", m)
	}
	r, err := d.Route(3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() == 0 || r.Path()[len(r.Path())-1] != 40 {
		t.Fatal("facade route broken")
	}
	avg, err := AverageCableLength(d.Graph(), DefaultLayoutConfig())
	if err != nil {
		t.Fatal(err)
	}
	if avg <= 0 {
		t.Fatal("cable length not positive")
	}
	cfg := benchSimConfig()
	rt, err := NewDuatoUpDown(d.Graph(), cfg.VCs)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(SimSpec{Config: cfg, Graph: d.Graph(), Router: rt, Pattern: NewUniform(64 * cfg.HostsPerSwitch), Rate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredTotal == 0 {
		t.Fatal("simulation delivered nothing")
	}
}

func TestFacadeTopologies(t *testing.T) {
	if _, err := NewRing(16); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDLNRandom(64, 2, 2, 1); err != nil {
		t.Fatal(err)
	}
	tor, err := NewTorus2DFor(64)
	if err != nil {
		t.Fatal(err)
	}
	if tor.N() != 64 {
		t.Fatal("torus size")
	}
	if _, err := NewKleinberg(8, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewHypercube(5); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCCC(3); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDeBruijn(5); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDSNE(60); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDSND(1024, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFlexibleDSN(60, []int{5}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExperiments(t *testing.T) {
	rows, err := PathSweep([]int{6}, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WritePathTable(&sb, rows, "aspl"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "DSN") {
		t.Fatal("table missing DSN")
	}
	crows, err := CableSweep([]int{6}, []uint64{1}, DefaultLayoutConfig())
	if err != nil {
		t.Fatal(err)
	}
	WriteCableTable(&sb, crows)
	if len(ComparisonNames) != 3 {
		t.Fatal("comparison names")
	}
}

func TestFacadeExtensions(t *testing.T) {
	// Bidirectional DSN.
	bi, err := NewBidirectionalDSN(128)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := bi.Route(3, 100); err != nil || r.Len() == 0 {
		t.Fatalf("BiDSN route: %v", err)
	}
	// Kautz.
	k, err := NewKautz(6)
	if err != nil {
		t.Fatal(err)
	}
	if !k.Connected() {
		t.Fatal("Kautz disconnected")
	}
	// Cost model and placement.
	d, err := NewDSN(128, CeilLog2(128)-1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLayout(128, DefaultLayoutConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.Price(d.Graph(), DefaultCostModel())
	if err != nil || rep.Total <= 0 {
		t.Fatalf("price: %v %v", rep, err)
	}
	if _, base, best, err := l.OptimizePlacement(d.Graph(), 500, 1); err != nil || best > base {
		t.Fatalf("optimize: %v", err)
	}
	// Graph metrics.
	if d.Graph().ClusteringCoefficient() < 0 {
		t.Fatal("clustering")
	}
	if d.Graph().MinEdgeConnectivity() < 2 {
		t.Fatal("connectivity")
	}
	// Local + overshoot-free routing on a DSN-V.
	v, err := NewDSNV(60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.RouteLocal(5, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := v.RouteNoOvershoot(5, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := v.RoutingReport(4); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSimulatorRouters(t *testing.T) {
	d, err := NewDSN(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := benchSimConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 500, 1000, 1500
	for name, build := range map[string]func() (Router, error){
		"adaptive": func() (Router, error) { return NewDuatoUpDown(d.Graph(), cfg.VCs) },
		"updown":   func() (Router, error) { return NewUpDownOnly(d.Graph(), cfg.VCs) },
		"valiant":  func() (Router, error) { return NewValiant(d.Graph(), cfg.VCs) },
	} {
		rt, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sim, err := NewSim(SimSpec{Config: cfg, Graph: d.Graph(), Router: rt, Pattern: NewUniform(256), Rate: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := sim.Run(); err != nil || res.DeliveredTotal == 0 {
			t.Fatalf("%s: %v %v", name, res, err)
		}
		worm, err := NewSim(SimSpec{Wormhole: true, Config: withWormBuf(cfg, 20), Graph: d.Graph(), Router: rt, Pattern: NewUniform(256), Rate: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := worm.Run(); err != nil || res.DeliveredTotal == 0 {
			t.Fatalf("%s wormhole: %v %v", name, res, err)
		}
	}
}

func withWormBuf(cfg SimConfig, buf int) SimConfig {
	cfg.BufFlitsPerVC = buf
	return cfg
}
