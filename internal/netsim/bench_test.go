package netsim

import (
	"testing"

	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/topology"
	"dsnet/internal/traffic"
)

// BenchmarkSimCycle measures raw VCT simulator throughput: simulated
// cycles per wall-clock second. The torus case is the paper's 64-switch
// configuration at moderate load; the DSN case is 1024-switch DSN-x at
// 0.1 load, past saturation, where blocked heads dominate (the dense-1024
// perfbench workload's schedule).
func BenchmarkSimCycle(b *testing.B) {
	for _, bc := range []struct {
		name                   string
		graph                  func() (*graph.Graph, error)
		warmup, measure, drain int64
	}{
		{"torus-8x8-0.1", func() (*graph.Graph, error) {
			tor, err := topology.Torus2D(8, 8)
			if err != nil {
				return nil, err
			}
			return tor.Graph(), nil
		}, 1000, 3000, 2000},
		{"dsn-1024-0.1", func() (*graph.Graph, error) {
			d, err := core.New(1024, core.CeilLog2(1024)-1)
			if err != nil {
				return nil, err
			}
			return d.Graph(), nil
		}, 1000, 1000, 500},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g, err := bc.graph()
			if err != nil {
				b.Fatal(err)
			}
			cfg := Default()
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = bc.warmup, bc.measure, bc.drain
			rt, err := NewDuatoUpDown(g, cfg.VCs)
			if err != nil {
				b.Fatal(err)
			}
			pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
			totalCycles := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim, err := NewSim(cfg, g, rt, pat, 0.1)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(totalCycles*int64(b.N))/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

// BenchmarkVCAblation contrasts 2 vs 4 virtual channels on the DSN at the
// same load — the paper fixes 4 VCs; this quantifies the choice.
func BenchmarkVCAblation(b *testing.B) {
	for _, vcs := range []int{2, 4} {
		b.Run(map[int]string{2: "2vc", 4: "4vc"}[vcs], func(b *testing.B) {
			tor, err := topology.Torus2D(8, 8)
			if err != nil {
				b.Fatal(err)
			}
			cfg := Default()
			cfg.VCs = vcs
			cfg.WarmupCycles = 1000
			cfg.MeasureCycles = 3000
			cfg.DrainCycles = 3000
			rt, err := NewDuatoUpDown(tor.Graph(), vcs)
			if err != nil {
				b.Fatal(err)
			}
			pat := traffic.Uniform{Hosts: 256}
			var lat float64
			for i := 0; i < b.N; i++ {
				sim, err := NewSim(cfg, tor.Graph(), rt, pat, 0.1)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run()
				if err != nil {
					b.Fatal(err)
				}
				lat = res.AvgLatencyNS
			}
			b.ReportMetric(lat, "latency_ns")
		})
	}
}

// BenchmarkPacketSizeAblation quantifies the paper's choice of small
// 33-flit packets for latency-sensitive traffic.
func BenchmarkPacketSizeAblation(b *testing.B) {
	for _, flits := range []int{9, 33, 129} {
		b.Run(map[int]string{9: "9flit", 33: "33flit", 129: "129flit"}[flits], func(b *testing.B) {
			tor, err := topology.Torus2D(8, 8)
			if err != nil {
				b.Fatal(err)
			}
			cfg := Default()
			cfg.PacketFlits = flits
			cfg.BufFlitsPerVC = flits
			cfg.WarmupCycles = 1000
			cfg.MeasureCycles = 3000
			cfg.DrainCycles = 3000
			rt, err := NewDuatoUpDown(tor.Graph(), cfg.VCs)
			if err != nil {
				b.Fatal(err)
			}
			pat := traffic.Uniform{Hosts: 256}
			var lat float64
			for i := 0; i < b.N; i++ {
				sim, err := NewSim(cfg, tor.Graph(), rt, pat, 0.05)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run()
				if err != nil {
					b.Fatal(err)
				}
				lat = res.AvgLatencyNS
			}
			b.ReportMetric(lat, "latency_ns")
		})
	}
}
