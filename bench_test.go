// Benchmarks regenerating every table and figure of the paper's
// evaluation. Run with:
//
//	go test -bench=Fig -benchmem .
//
// Each benchmark executes the full experiment behind one figure and
// reports its headline quantities as custom metrics, so a single -bench
// run reproduces the numbers recorded in EXPERIMENTS.md. The cmd/dsnfigs
// tool prints the same data as full plain-text tables.
package dsnet

import (
	"testing"
)

// benchSimConfig returns a simulator schedule short enough for benchmark
// iterations while keeping the latency ordering stable.
func benchSimConfig() SimConfig {
	cfg := DefaultSimConfig()
	cfg.WarmupCycles = 2000
	cfg.MeasureCycles = 4000
	cfg.DrainCycles = 6000
	return cfg
}

var fig78Sizes = []int{5, 6, 7, 8, 9, 10, 11} // log2 of 32..2048 switches

// BenchmarkFig7_Diameter regenerates Figure 7: diameter vs network size
// for 2-D torus, RANDOM (DLN-2-2) and DSN.
func BenchmarkFig7_Diameter(b *testing.B) {
	var rows []PathRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = PathSweep(fig78Sizes, []uint64{1})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.Diameter["DSN"], "dsn_diam_2048")
	b.ReportMetric(last.Diameter["Torus"], "torus_diam_2048")
	b.ReportMetric(last.Diameter["RANDOM"], "random_diam_2048")
}

// BenchmarkFig8_ASPL regenerates Figure 8: average shortest path length
// vs network size.
func BenchmarkFig8_ASPL(b *testing.B) {
	var rows []PathRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = PathSweep(fig78Sizes, []uint64{1})
		if err != nil {
			b.Fatal(err)
		}
	}
	first, last := rows[1], rows[len(rows)-1] // 64 and 2048 switches
	b.ReportMetric(first.ASPL["DSN"], "dsn_aspl_64")
	b.ReportMetric(first.ASPL["Torus"], "torus_aspl_64")
	b.ReportMetric(last.ASPL["DSN"], "dsn_aspl_2048")
	b.ReportMetric(last.ASPL["Torus"], "torus_aspl_2048")
}

// BenchmarkFig9_CableLength regenerates Figure 9: average cable length vs
// network size under the Section VI.B machine-room layout.
func BenchmarkFig9_CableLength(b *testing.B) {
	var rows []CableRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = CableSweep(fig78Sizes, []uint64{1}, DefaultLayoutConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.Average["DSN"], "dsn_cable_m_2048")
	b.ReportMetric(last.Average["Torus"], "torus_cable_m_2048")
	b.ReportMetric(last.Average["RANDOM"], "random_cable_m_2048")
}

// fig10 runs one Figure 10 subfigure: 64 switches, 4 hosts/switch,
// adaptive routing with up*/down* escape, sweeping offered load, and
// reports the low-load latency of each topology.
func fig10(b *testing.B, pattern string) {
	rates := []float64{0.02, 0.06, 0.10}
	var curves []LatencyCurve
	for i := 0; i < b.N; i++ {
		var err error
		curves, err = Fig10Curves(benchSimConfig(), pattern, rates, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range curves {
		name := map[string]string{"Torus": "torus", "RANDOM": "random", "DSN": "dsn"}[c.Topology]
		b.ReportMetric(c.Points[0].AvgLatencyNS, name+"_lat_ns")
		b.ReportMetric(c.Points[len(c.Points)-1].AcceptedGbps, name+"_acc_gbps")
	}
}

// BenchmarkFig10a_Uniform regenerates Figure 10(a): latency vs accepted
// traffic under uniform traffic.
func BenchmarkFig10a_Uniform(b *testing.B) { fig10(b, "uniform") }

// BenchmarkFig10b_BitReversal regenerates Figure 10(b).
func BenchmarkFig10b_BitReversal(b *testing.B) { fig10(b, "bit-reversal") }

// BenchmarkFig10c_Neighboring regenerates Figure 10(c).
func BenchmarkFig10c_Neighboring(b *testing.B) { fig10(b, "neighboring") }

// BenchmarkBalance_CustomVsUpDown regenerates the Section VII custom
// routing traffic-balance comparison (the paper's "initial work" result).
func BenchmarkBalance_CustomVsUpDown(b *testing.B) {
	var res []BalanceResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = BalanceComparison(benchSimConfig(), 64, 0.01)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		b.ReportMetric(r.CoV, r.Scheme+"_cov")
	}
}

// Ablation benches for the design choices called out in DESIGN.md.

// BenchmarkAblation_DSNShortcutLadder compares the DSN against a pure
// ring of the same size: the cost of computing metrics doubles as a
// regression guard for the shortcut construction.
func BenchmarkAblation_DSNShortcutLadder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := NewDSN(1024, CeilLog2(1024)-1)
		if err != nil {
			b.Fatal(err)
		}
		m := d.Graph().AllPairs()
		if i == 0 {
			b.ReportMetric(float64(m.Diameter), "dsn_diameter")
		}
	}
}

// BenchmarkAblation_DSNDvsBasic measures how the DSN-D-2 short links
// trade shortcut levels for local-walk length.
func BenchmarkAblation_DSNDvsBasic(b *testing.B) {
	var dd, db float64
	for i := 0; i < b.N; i++ {
		basic, err := NewDSN(1024, CeilLog2(1024)-1)
		if err != nil {
			b.Fatal(err)
		}
		d2, err := NewDSND(1024, 2)
		if err != nil {
			b.Fatal(err)
		}
		db = float64(basic.Graph().AllPairs().Diameter)
		dd = float64(d2.Graph().AllPairs().Diameter)
	}
	b.ReportMetric(db, "basic_diameter")
	b.ReportMetric(dd, "dsnd2_diameter")
}

// BenchmarkRoutingDiameter measures the custom routing's all-pairs cost
// and verifies the Theorem 1(c) bound as a side effect.
func BenchmarkRoutingDiameter(b *testing.B) {
	d, err := NewDSN(256, CeilLog2(256)-1)
	if err != nil {
		b.Fatal(err)
	}
	maxLen := 0
	for i := 0; i < b.N; i++ {
		maxLen = 0
		for s := 0; s < d.N; s++ {
			for t := 0; t < d.N; t++ {
				l, err := d.RouteLen(s, t)
				if err != nil {
					b.Fatal(err)
				}
				if l > maxLen {
					maxLen = l
				}
			}
		}
	}
	b.ReportMetric(float64(maxLen), "routing_diameter")
	b.ReportMetric(float64(d.RoutingDiameterBound()), "theorem_bound")
}

// BenchmarkFigPhysical regenerates the analytic end-to-end latency model
// (hops x 100ns + cable x 5ns/m) across the size sweep.
func BenchmarkFigPhysical(b *testing.B) {
	var rows []PhysicalRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = PhysicalLatencySweep(fig78Sizes, []uint64{1}, DefaultLayoutConfig(), DefaultPhysicalConst())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.MeanNS["DSN"], "dsn_ns_2048")
	b.ReportMetric(last.MeanNS["Torus"], "torus_ns_2048")
	b.ReportMetric(last.MeanNS["RANDOM"], "random_ns_2048")
}

// BenchmarkAblation_PlacementOptimizer quantifies the layout-awareness
// claim: annealing the cabinet placement finds nothing to improve for
// DSN but shortens RANDOM's cables substantially.
func BenchmarkAblation_PlacementOptimizer(b *testing.B) {
	const n = 256
	d, err := NewDSN(n, CeilLog2(n)-1)
	if err != nil {
		b.Fatal(err)
	}
	random, err := NewDLNRandom(n, 2, 2, 5)
	if err != nil {
		b.Fatal(err)
	}
	l, err := NewLayout(n, DefaultLayoutConfig())
	if err != nil {
		b.Fatal(err)
	}
	var dsnGain, rndGain float64
	for i := 0; i < b.N; i++ {
		_, base, best, err := l.OptimizePlacement(d.Graph(), 60000, 7)
		if err != nil {
			b.Fatal(err)
		}
		dsnGain = (1 - best/base) * 100
		_, base, best, err = l.OptimizePlacement(random, 60000, 7)
		if err != nil {
			b.Fatal(err)
		}
		rndGain = (1 - best/base) * 100
	}
	b.ReportMetric(dsnGain, "dsn_gain_pct")
	b.ReportMetric(rndGain, "random_gain_pct")
}

// BenchmarkCollective_RingAllreduce replays the closed-loop ring
// allreduce on the comparison topologies (plus DSN custom routing) and
// reports each topology's mean makespan. Small scale — 16 switches,
// one-packet chunks — so a -benchtime=1x run doubles as a CI smoke test
// of the collectives engine.
func BenchmarkCollective_RingAllreduce(b *testing.B) {
	var rows []CollectiveRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = CollectiveSweep(benchSimConfig(), []int{16}, "allreduce", "ring", 0, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		name := map[string]string{"Torus": "torus", "RANDOM": "random", "DSN": "dsn", "DSN-custom": "dsn_custom"}[r.Name]
		b.ReportMetric(r.MakespanUS, name+"_makespan_us")
	}
}

// BenchmarkCollective_Broadcast replays the binomial-tree broadcast —
// the fan-out shape whose critical path is log2(hosts) serialized hops —
// and reports the makespans.
func BenchmarkCollective_Broadcast(b *testing.B) {
	var rows []CollectiveRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = CollectiveSweep(benchSimConfig(), []int{16}, "broadcast", "", 0, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		name := map[string]string{"Torus": "torus", "RANDOM": "random", "DSN": "dsn", "DSN-custom": "dsn_custom"}[r.Name]
		b.ReportMetric(r.MakespanUS, name+"_makespan_us")
	}
}

// BenchmarkAblation_EscapePatience contrasts post-saturation throughput
// with and without the escape-patience policy.
func BenchmarkAblation_EscapePatience(b *testing.B) {
	d, err := NewDSN(64, 5)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := NewDuatoUpDown(d.Graph(), 4)
	if err != nil {
		b.Fatal(err)
	}
	var eager, patient float64
	for i := 0; i < b.N; i++ {
		for _, patience := range []int64{0, 16} {
			cfg := benchSimConfig()
			cfg.EscapePatienceCycles = patience
			sim, err := NewSim(SimSpec{Config: cfg, Graph: d.Graph(), Router: rt, Pattern: NewUniform(256), Rate: 0.25})
			if err != nil {
				b.Fatal(err)
			}
			res, _ := sim.Run()
			if patience == 0 {
				eager = res.AcceptedGbps
			} else {
				patient = res.AcceptedGbps
			}
		}
	}
	b.ReportMetric(eager, "eager_gbps")
	b.ReportMetric(patient, "patient_gbps")
}
