// HPC workload study: drive DSN and the torus with application-shaped
// traffic (2-D halo exchange and personalized all-to-all) under both
// switching modes, and demonstrate the stateless switch-local routing
// logic of the DSN-E variant.
package main

import (
	"fmt"
	"log"

	"dsnet"
)

func main() {
	cfg := dsnet.DefaultSimConfig()
	cfg.WarmupCycles = 4000
	cfg.MeasureCycles = 8000
	cfg.DrainCycles = 10000

	dsn, err := dsnet.NewDSN(64, dsnet.CeilLog2(64)-1)
	if err != nil {
		log.Fatal(err)
	}
	torus, err := dsnet.NewTorus2DFor(64)
	if err != nil {
		log.Fatal(err)
	}
	hosts := 64 * cfg.HostsPerSwitch

	stencil, err := dsnet.NewStencil2D(16, 16, true) // 256 hosts as a 16x16 grid
	if err != nil {
		log.Fatal(err)
	}
	allToAll, err := dsnet.NewAllToAll(hosts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("application traffic on 64 switches x 4 hosts, adaptive routing")
	fmt.Printf("%-12s %-10s %12s %12s\n", "workload", "topology", "latency_ns", "accepted")
	for _, wl := range []struct {
		name string
		pat  dsnet.TrafficPattern
		rate float64
	}{
		{"halo-2d", stencil, 0.10},
		{"all-to-all", allToAll, 0.06},
	} {
		for _, tc := range []struct {
			name string
			g    *dsnet.Graph
		}{{"DSN", dsn.Graph()}, {"torus", torus.Graph()}} {
			rt, err := dsnet.NewDuatoUpDown(tc.g, cfg.VCs)
			if err != nil {
				log.Fatal(err)
			}
			sim, err := dsnet.NewSim(dsnet.SimSpec{Config: cfg, Graph: tc.g, Router: rt, Pattern: wl.pat, Rate: wl.rate})
			if err != nil {
				log.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-12s %-10s %12.0f %12.2f\n", wl.name, tc.name, res.AvgLatencyNS, res.AcceptedGbps)
		}
	}

	// Switching-mode ablation: wormhole with RTT-sized buffers tracks VCT
	// at low load and saturates earlier under pressure.
	fmt.Println("\nswitching modes on DSN, uniform traffic:")
	graphsDSN := dsn.Graph()
	pts, err := dsnet.SwitchingComparison(cfg, graphsDSN, "uniform", []float64{0.02, 0.12}, 20)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pts {
		fmt.Printf("  rate %.2f: VCT %4.0f ns / %5.2f Gbps   wormhole %4.0f ns / %5.2f Gbps\n",
			p.Rate, p.VCT.AvgLatencyNS, p.VCT.AcceptedGbps, p.Wormhole.AvgLatencyNS, p.Wormhole.AcceptedGbps)
	}

	// Stateless switch-local routing: each DSN-E switch picks the next hop
	// from (own ID, destination, arrival channel class) alone.
	dsnE, err := dsnet.NewDSNE(60)
	if err != nil {
		log.Fatal(err)
	}
	r, err := dsnE.RouteLocal(7, 44)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDSN-E stateless switch-local route 7 -> 44 (%d hops):\n", r.Len())
	for _, h := range r.Hops {
		fmt.Printf("  %-12s %2d -> %2d on the %s channel\n", h.Phase, h.From, h.To, h.Class)
	}
	ref, err := dsnE.Route(7, 44)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("identical to the centralized reference: %v\n", r.Len() == ref.Len())
}
