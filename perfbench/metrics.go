package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"dsnet/internal/netsim"
)

// Metric is one declared metric, as listed in BENCHMARK.json.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd are the metrics every untraced run reports, on every
// workload. Throughput is one metric whose unit of work depends on the
// workload: simulated cycles on the three simulation workloads,
// evaluated candidates on search-256.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"alloc_mb", "MB", "lower", 0.2},
}

// PerLayer are the metrics every traced run reports. A layer the
// workload never calls reports 0.
var PerLayer = []Metric{
	{"netsim.vct.run_s", "s", "lower", 0},
	{"netsim.worm.run_s", "s", "lower", 0},
	{"netsim.replay.run_s", "s", "lower", 0},
	{"netsim.vct.ns_per_cycle", "ns", "lower", 0},
	{"netsim.worm.ns_per_cycle", "ns", "lower", 0},
	{"netsim.vct.ns_per_pkt", "ns", "lower", 0},
	{"netsim.worm.ns_per_pkt", "ns", "lower", 0},
	{"netsim.vct.allocs_per_cycle", "count", "lower", 0},
	{"netsim.vct.bytes_per_cycle", "B", "lower", 0},
	{"netsim.worm.allocs_per_cycle", "count", "lower", 0},
	{"netsim.worm.bytes_per_cycle", "B", "lower", 0},
	{"netsim.new_s", "s", "lower", 0},
	{"netsim.cycles", "count", "lower", 0},
	{"netsim.delivered_frac", "ratio", "higher", 0},
	{"netsim.escape_frac", "ratio", "lower", 0},
	{"netsim.max_hol_wait_cycles", "count", "lower", 0},
	{"netsim.dropped", "count", "lower", 0},
	{"netsim.retried", "count", "lower", 0},
	{"netsim.lost", "count", "lower", 0},
	{"netsim.retry_ratio", "ratio", "lower", 0},
	{"routing.updown_new_s", "s", "lower", 0},
	{"verify.cdg_s", "s", "lower", 0},
	{"verify.totality_s", "s", "lower", 0},
	{"verify.cdg_deps", "count", "lower", 0},
	{"graph.build_s", "s", "lower", 0},
	{"graph.apsp_s", "s", "lower", 0},
	{"core.build_s", "s", "lower", 0},
	{"layout.price_s", "s", "lower", 0},
	{"collectives.generate_s", "s", "lower", 0},
	{"chaos.golden_s", "s", "lower", 0},
	{"chaos.scenario_s", "s", "lower", 0},
	{"chaos.scenario_max_s", "s", "lower", 0},
	{"chaos.scenarios", "count", "higher", 0},
	{"chaos.violations", "count", "lower", 0},
	{"recovery.detected", "count", "lower", 0},
	{"recovery.recovered", "count", "higher", 0},
	{"recovery.released", "count", "higher", 0},
	{"recovery.lost", "count", "lower", 0},
	{"recovery.drain_paused_cycles", "count", "lower", 0},
	{"search.run_s", "s", "lower", 0},
	{"search.evaluate_s", "s", "lower", 0},
	{"search.evaluate_max_s", "s", "lower", 0},
	{"search.cert_frac", "ratio", "lower", 0},
	{"search.evaluated", "count", "higher", 0},
	{"search.certified", "count", "higher", 0},
	{"search.rejected", "count", "lower", 0},
	{"harness.put_s", "s", "lower", 0},
	{"harness.get_s", "s", "lower", 0},
	{"harness.replay_s", "s", "lower", 0},
	{"harness.cells_executed", "count", "lower", 0},
	{"harness.cells_cached", "count", "higher", 0},
	{"harness.hit_ratio", "ratio", "higher", 0},
	{"harness.cache_errors", "count", "lower", 0},
	{"trace.wall_s", "s", "lower", 0},
	{"trace.overhead_s", "s", "lower", 0},
}

// runStat is one engine run (or chaos scenario) as the benchmark saw it.
type runStat struct {
	dt             time.Duration
	cycles, pkts   int64
	mallocs, bytes uint64
}

// Acc accumulates one pass's measurements and modelled counts.
type Acc struct {
	runs     map[string][]runStat // engine -> runs in call order
	counts   map[string]float64
	maxHOL   int64
	esc      float64
	escRuns  int
	evals    int
	evalTime time.Duration
}

func newAcc() *Acc {
	return &Acc{runs: map[string][]runStat{}, counts: map[string]float64{}}
}

func (a *Acc) add(name string, v float64) { a.counts[name] += v }

func (a *Acc) addRun(eng string, dt time.Duration, cycles, pkts int64, mallocs, bytes uint64) {
	a.runs[eng] = append(a.runs[eng], runStat{dt, cycles, pkts, mallocs, bytes})
}

func (a *Acc) addEvals(n int, dt time.Duration) {
	a.evals += n
	a.evalTime += dt
}

// addResult folds one simulator Result's modelled counts in.
func (a *Acc) addResult(eng string, r netsim.Result) {
	a.add("netsim.generated", float64(r.GeneratedTotal))
	a.add("netsim.delivered", float64(r.DeliveredTotal))
	a.add("netsim.dropped", float64(r.Dropped))
	a.add("netsim.retried", float64(r.Retried))
	a.add("netsim.lost", float64(r.Lost))
	a.add("recovery.detected", float64(r.DeadlocksDetected))
	a.add("recovery.recovered", float64(r.DeadlocksRecovered))
	a.add("recovery.released", float64(r.DeadlocksReleased))
	a.add("recovery.lost", float64(r.DeadlocksLost))
	a.add("recovery.drain_paused_cycles", float64(r.DrainPausedCycles))
	a.maxHOL = max(a.maxHOL, r.MaxHOLWaitCycles)
	if eng != "worm" { // the wormhole engine does not report escape grants
		a.esc += r.EscapeFraction
		a.escRuns++
	}
}

// total sums the runs of engine eng, or of every engine when eng is "".
func (a *Acc) total(eng string) runStat {
	var t runStat
	for e, rs := range a.runs { // dsnlint:ok maprange order-independent sums
		if eng != "" && e != eng {
			continue
		}
		for _, r := range rs {
			t.dt += r.dt
			t.cycles += r.cycles
			t.pkts += r.pkts
			t.mallocs += r.mallocs
			t.bytes += r.bytes
		}
	}
	return t
}

// pass is one run of every op of a workload.
type pass struct {
	traced bool
	wall   time.Duration // ops that count toward wall_s
	alloc  uint64        // heap bytes allocated by the pass
	peak   float64       // peak resident bytes during the pass
	acc    *Acc
}

// runData is everything one benchmark run measured.
type runData struct {
	w        Workload
	setup    []time.Duration
	passes   []pass
	spans    []Span
	profile  *os.File // CPU profile being written, nil when none
	profiles []string // CPU profile files written
}

func (d *runData) passesOf(traced bool) []pass {
	var out []pass
	for _, p := range d.passes {
		if p.traced == traced {
			out = append(out, p)
		}
	}
	return out
}

// rates returns the workload's host throughput, as medians over the
// given passes of each pass's rate: simulated cycles and delivered
// packets per second inside the engines' Run, and candidates per second
// on the cold search.
func rates(ps []pass) (cyclesPerS, pktsPerS, evalsPerS float64) {
	var cyc, pkts, evals []float64
	for _, p := range ps {
		if r := p.acc.total(""); r.dt > 0 {
			cyc = append(cyc, float64(r.cycles)/r.dt.Seconds())
			pkts = append(pkts, float64(r.pkts)/r.dt.Seconds())
		}
		if p.acc.evalTime > 0 {
			evals = append(evals, float64(p.acc.evals)/p.acc.evalTime.Seconds())
		}
	}
	return median(cyc), median(pkts), median(evals)
}

// EndToEndValues computes the untraced metrics.
func (d *runData) EndToEndValues() map[string]float64 {
	ps := d.passesOf(false)
	var walls, allocs, peaks []float64
	for _, p := range ps {
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, float64(p.alloc)/1e6)
		peaks = append(peaks, p.peak/1e6)
	}
	var setups []float64
	for _, s := range d.setup {
		setups = append(setups, s.Seconds())
	}
	cyc, _, evals := rates(ps)
	work := cyc
	if !d.w.Sim {
		work = evals
	}
	return map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      median(walls),
		"work_per_s":  work,
		"peak_rss_mb": median(peaks),
		"alloc_mb":    median(allocs),
	}
}

// spanStats groups span self times by span name.
func spanStats(spans []Span) map[string][]float64 {
	self := SelfTimes(spans)
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], self[i].Seconds())
	}
	return out
}

// PerLayerValues computes the traced metrics: median self time per call
// for each layer's spans, host cost per simulated cycle and packet,
// and the modelled counts of the first traced pass (every pass of a
// deterministic workload counts the same).
func (d *runData) PerLayerValues() map[string]float64 {
	ps := d.passesOf(true)
	v := map[string]float64{}
	for _, m := range PerLayer {
		v[m.Name] = 0
	}
	if len(ps) == 0 {
		return v
	}
	st := spanStats(d.spans)
	for _, name := range []string{"netsim.new", "routing.updown_new", "verify.cdg", "verify.totality",
		"graph.build", "graph.apsp", "core.build", "layout.price", "collectives.generate",
		"chaos.golden", "chaos.scenario", "search.run", "search.evaluate",
		"harness.put", "harness.get", "harness.replay"} {
		v[name+"_s"] = median(st[name])
	}
	v["chaos.scenario_max_s"] = maxOf(st["chaos.scenario"])
	v["search.evaluate_max_s"] = maxOf(st["search.evaluate"])
	v["search.cert_frac"] = certFrac(d.spans)

	var runs = map[string][]float64{}
	all := newAcc()
	for _, p := range ps {
		for eng, rs := range p.acc.runs { // dsnlint:ok maprange per-key appends
			for _, r := range rs {
				runs[eng] = append(runs[eng], r.dt.Seconds())
				all.addRun(eng, r.dt, r.cycles, r.pkts, r.mallocs, r.bytes)
			}
		}
	}
	for _, eng := range []string{"vct", "worm", "replay"} {
		v["netsim."+eng+".run_s"] = median(runs[eng])
	}
	for _, eng := range []string{"vct", "worm"} {
		t := all.total(eng)
		if t.cycles > 0 {
			v["netsim."+eng+".ns_per_cycle"] = float64(t.dt.Nanoseconds()) / float64(t.cycles)
			v["netsim."+eng+".allocs_per_cycle"] = float64(t.mallocs) / float64(t.cycles)
			v["netsim."+eng+".bytes_per_cycle"] = float64(t.bytes) / float64(t.cycles)
		}
		if t.pkts > 0 {
			v["netsim."+eng+".ns_per_pkt"] = float64(t.dt.Nanoseconds()) / float64(t.pkts)
		}
	}

	first := ps[0].acc
	v["netsim.cycles"] = float64(first.total("").cycles)
	for _, name := range []string{"netsim.dropped", "netsim.retried", "netsim.lost",
		"recovery.detected", "recovery.recovered", "recovery.released", "recovery.lost",
		"recovery.drain_paused_cycles", "chaos.scenarios", "chaos.violations",
		"search.evaluated", "search.certified", "search.rejected",
		"harness.cells_executed", "harness.cells_cached", "harness.hit_ratio", "harness.cache_errors"} {
		v[name] = first.counts[name]
	}
	if gen := first.counts["netsim.generated"]; gen > 0 {
		v["netsim.delivered_frac"] = first.counts["netsim.delivered"] / gen
		v["netsim.retry_ratio"] = first.counts["netsim.retried"] / gen
	}
	if first.escRuns > 0 {
		v["netsim.escape_frac"] = first.esc / float64(first.escRuns)
	}
	v["netsim.max_hol_wait_cycles"] = float64(first.maxHOL)
	if n := first.counts["verify.cdg_calls"]; n > 0 {
		v["verify.cdg_deps"] = first.counts["verify.cdg_deps"] / n
	}

	var tw []float64
	for _, p := range ps {
		tw = append(tw, p.wall.Seconds())
	}
	v["trace.wall_s"] = median(tw)
	if un := d.passesOf(false); len(un) > 0 {
		var uw []float64
		for _, p := range un {
			uw = append(uw, p.wall.Seconds())
		}
		v["trace.overhead_s"] = v["trace.wall_s"] - median(uw)
	}
	return v
}

// certFrac is the share of the stage-by-stage candidate evaluation in
// search-256's re-issue op spent certifying: the up*/down* escape
// tables plus the Dally–Seitz checks, over every stage of the same
// calls, so it never exceeds 1. It is 0 on workloads without that op.
func certFrac(spans []Span) float64 {
	stage := map[string]float64{}
	for _, s := range spans {
		if s.Op >= 0 && spans[s.Op].Name == "op.reissue" {
			stage[s.Name] += s.Dur().Seconds()
		}
	}
	cert := stage["routing.updown_new"] + stage["verify.cdg"] + stage["verify.totality"]
	all := cert + stage["graph.build"] + stage["graph.apsp"] + stage["layout.price"]
	if all == 0 {
		return 0
	}
	return cert / all
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// resetPeakRSS restarts the kernel's peak resident set count (VmHWM)
// at the current resident set, so the next peakRSS covers one pass.
// Where the kernel refuses the reset, VmHWM keeps covering the whole
// process, which only coarsens peak_rss_mb, so the error is dropped.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads the process's peak resident set (VmHWM) in bytes.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	return 0
}
