package analysis

import (
	"fmt"
	"io"

	"dsnet/internal/graph"
	"dsnet/internal/netsim"
)

// SwitchingPoint compares virtual cut-through and wormhole switching on
// one topology at one offered load.
type SwitchingPoint struct {
	Rate     float64
	VCT      netsim.Result
	Wormhole netsim.Result
}

// SwitchingComparison runs the Section V.A ablation: the same topology,
// routing and traffic under VCT (full-packet buffers) and wormhole
// switching (wormBuf flits per VC), across the given offered loads.
func SwitchingComparison(cfg netsim.Config, g *graph.Graph, patternName string, rates []float64, wormBuf int) ([]SwitchingPoint, error) {
	if wormBuf < 1 {
		return nil, fmt.Errorf("analysis: wormhole buffer %d < 1", wormBuf)
	}
	rt, err := netsim.NewDuatoUpDown(g, cfg.VCs)
	if err != nil {
		return nil, err
	}
	pat, err := PatternFor(patternName, g.N(), cfg.HostsPerSwitch)
	if err != nil {
		return nil, err
	}
	vctCfg := cfg
	vctCfg.BufFlitsPerVC = cfg.PacketFlits
	wormCfg := cfg
	wormCfg.BufFlitsPerVC = wormBuf
	var out []SwitchingPoint
	for _, rate := range rates {
		pt := SwitchingPoint{Rate: rate}
		sim, err := netsim.New(netsim.Spec{Config: vctCfg, Graph: g, Router: rt, Pattern: pat, Rate: rate})
		if err != nil {
			return nil, err
		}
		pt.VCT, _ = sim.Run() // a watchdog error still yields a result
		worm, err := netsim.New(netsim.Spec{Wormhole: true, Config: wormCfg, Graph: g, Router: rt, Pattern: pat, Rate: rate})
		if err != nil {
			return nil, err
		}
		pt.Wormhole, _ = worm.Run()
		out = append(out, pt)
	}
	return out, nil
}

// WriteSwitchingTable renders the comparison.
func WriteSwitchingTable(w io.Writer, pts []SwitchingPoint) {
	fmt.Fprintf(w, "%10s %12s %12s %12s %12s\n", "rate", "vct_acc", "vct_lat_ns", "worm_acc", "worm_lat_ns")
	for _, p := range pts {
		fmt.Fprintf(w, "%10.3f %12.2f %12.1f %12.2f %12.1f\n",
			p.Rate, p.VCT.AcceptedGbps, p.VCT.AvgLatencyNS, p.Wormhole.AcceptedGbps, p.Wormhole.AvgLatencyNS)
	}
}
