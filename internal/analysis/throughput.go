package analysis

import (
	"fmt"
	"io"

	"dsnet/internal/graph"
	"dsnet/internal/netsim"
)

// ThroughputRow is the paper's throughput metric for one topology under
// one pattern: "the largest amount of traffic (in Gbit/sec) accepted by
// the network before the network is not saturated" (Section VII.A).
type ThroughputRow struct {
	Topology      string
	Pattern       string
	SaturationGB  float64 // accepted Gbit/s/host at the found knee
	KneeRate      float64 // offered flits/cycle/host at the knee
	LatencyAtKnee float64 // ns
}

// SaturationThroughput bisects the offered load for the highest rate the
// network sustains without saturating, between lo and hi (flits/cycle/
// host), to within tol. Each probe is one simulation run.
func SaturationThroughput(cfg netsim.Config, g *graph.Graph, rt netsim.Router, patternName string, lo, hi, tol float64) (ThroughputRow, error) {
	if lo < 0 || hi <= lo || tol <= 0 {
		return ThroughputRow{}, fmt.Errorf("analysis: bad bisection range [%g,%g] tol %g", lo, hi, tol)
	}
	pat, err := PatternFor(patternName, g.N(), cfg.HostsPerSwitch)
	if err != nil {
		return ThroughputRow{}, err
	}
	probe := func(rate float64) (netsim.Result, bool, error) {
		sim, err := netsim.New(netsim.Spec{Config: cfg, Graph: g, Router: rt, Pattern: pat, Rate: rate})
		if err != nil {
			return netsim.Result{}, false, err
		}
		res, runErr := sim.Run()
		// A watchdog trip counts as saturated.
		return res, res.Saturated || runErr != nil, nil
	}
	// Ensure the bracket actually brackets the knee.
	best := ThroughputRow{Pattern: patternName}
	loRes, loSat, err := probe(lo)
	if err != nil {
		return ThroughputRow{}, err
	}
	if loSat {
		return ThroughputRow{}, fmt.Errorf("analysis: lower bound %g already saturated", lo)
	}
	best.KneeRate = lo
	best.SaturationGB = loRes.AcceptedGbps
	best.LatencyAtKnee = loRes.AvgLatencyNS
	_, hiSat, err := probe(hi)
	if err != nil {
		return ThroughputRow{}, err
	}
	if !hiSat {
		// The whole range is sustainable; report the top.
		res, _, err := probe(hi)
		if err != nil {
			return ThroughputRow{}, err
		}
		best.KneeRate = hi
		best.SaturationGB = res.AcceptedGbps
		best.LatencyAtKnee = res.AvgLatencyNS
		return best, nil
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		res, sat, err := probe(mid)
		if err != nil {
			return ThroughputRow{}, err
		}
		if sat {
			hi = mid
		} else {
			lo = mid
			best.KneeRate = mid
			best.SaturationGB = res.AcceptedGbps
			best.LatencyAtKnee = res.AvgLatencyNS
		}
	}
	return best, nil
}

// ThroughputComparison measures the saturation throughput of the three
// comparison topologies under one pattern with the paper's adaptive
// routing.
func ThroughputComparison(cfg netsim.Config, patternName string, seed uint64) ([]ThroughputRow, error) {
	graphs, err := BuildComparison(64, seed)
	if err != nil {
		return nil, err
	}
	var rows []ThroughputRow
	for _, name := range Names {
		rt, err := netsim.NewDuatoUpDown(graphs[name], cfg.VCs)
		if err != nil {
			return nil, err
		}
		row, err := SaturationThroughput(cfg, graphs[name], rt, patternName, 0.02, 0.40, 0.01)
		if err != nil {
			return nil, fmt.Errorf("analysis: throughput of %s: %w", name, err)
		}
		row.Topology = name
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteThroughputTable renders the comparison.
func WriteThroughputTable(w io.Writer, rows []ThroughputRow) {
	fmt.Fprintf(w, "%-8s %-14s %14s %12s %14s\n", "topo", "pattern", "thruput_gbps", "knee_rate", "latency_ns")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-14s %14.2f %12.3f %14.1f\n",
			r.Topology, r.Pattern, r.SaturationGB, r.KneeRate, r.LatencyAtKnee)
	}
}
