package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"dsnet/internal/chaos"
	"dsnet/internal/collectives"
	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/harness"
	"dsnet/internal/layout"
	"dsnet/internal/netsim"
	"dsnet/internal/routing"
	"dsnet/internal/search"
	"dsnet/internal/traffic"
	"dsnet/internal/verify"
)

// Params sizes a workload. Default is what the benchmark measures;
// tests run the same code at Tiny sizes.
type Params struct {
	N                      int     // switches
	Rate                   float64 // offered load, flits/cycle/host (open loop)
	Warmup, Measure, Drain int64   // simulator schedule, cycles
	AllreduceRanks         int     // ring-allreduce ranks (sparse-64)
	ChunkFlits             int     // allreduce chunk per message (sparse-64)
	Scenarios              int     // chaos scenarios after the golden run
	Degree, Budget         int     // search port budget and evaluations
}

func (p Params) String() string {
	return fmt.Sprintf("n=%d rate=%g warmup=%d measure=%d drain=%d ranks=%d chunk=%d scenarios=%d degree=%d budget=%d",
		p.N, p.Rate, p.Warmup, p.Measure, p.Drain, p.AllreduceRanks, p.ChunkFlits, p.Scenarios, p.Degree, p.Budget)
}

// Op is one operation of a workload. A pass runs every op in order,
// one at a time. TraceOnly ops re-issue calls layer by layer for the
// per-layer table; they run only in traced passes and are not part of
// wall_s.
type Op struct {
	Name      string
	TraceOnly bool
	Run       func(tr *Tracer, acc *Acc) (Outcome, error)
}

// Outcome is what one op produced. Digest is the SHA-256 of the op's
// canonical result document; Check holds the first output invariant
// that failed (nil when every check held).
type Outcome struct {
	Digest string
	Check  error
}

// Workload is one named benchmark input family.
type Workload struct {
	Name    string
	Why     string
	Sim     bool // reports simulated cycles and packets
	Default Params
	Tiny    Params
	Setup   func(tr *Tracer, p Params, seed uint64, work string) ([]Op, error)
}

// Workloads lists the benchmark's workloads in BENCHMARK.json order.
var Workloads = []Workload{
	{
		Name: "sparse-64",
		Why:  "64-switch DSN-x at 0.01 load on VCT and wormhole plus a ring-allreduce replay: idle switch scanning dominates",
		Sim:  true,
		Default: Params{N: 64, Rate: 0.01, Warmup: 2000, Measure: 8000, Drain: 10000,
			ChunkFlits: 33, AllreduceRanks: 64},
		Tiny:  Params{N: 16, Rate: 0.01, Warmup: 200, Measure: 400, Drain: 400, ChunkFlits: 4, AllreduceRanks: 8},
		Setup: setupSparse,
	},
	{
		Name:    "dense-1024",
		Why:     "1024-switch DSN-x at 0.1 load on VCT, past saturation: blocked heads recompute routing candidates every cycle",
		Sim:     true,
		Default: Params{N: 1024, Rate: 0.1, Warmup: 1000, Measure: 1000, Drain: 500},
		Tiny:    Params{N: 64, Rate: 0.1, Warmup: 100, Measure: 200, Drain: 100},
		Setup:   setupDense,
	},
	{
		Name: "chaos-36",
		Why:  "seeded chaos campaign on the 36-switch dsn target, recovery and drain armed, on both engines: fault epochs and rebuilds",
		Sim:  true,
		Default: Params{N: 36, Rate: 0.05, Warmup: 5000, Measure: 10000, Drain: 40000,
			Scenarios: 4},
		Tiny:  Params{N: 16, Rate: 0.05, Warmup: 1000, Measure: 2000, Drain: 8000, Scenarios: 4},
		Setup: setupChaos,
	},
	{
		Name:    "search-256",
		Why:     "evolve search, aspl objective, 256 switches, then a byte-identical cached replay: no simulation, certification dominates",
		Default: Params{N: 256, Degree: 7, Budget: 32},
		Tiny:    Params{N: 16, Degree: 5, Budget: 6},
		Setup:   setupSearch,
	},
}

// FindWorkload returns the named workload.
func FindWorkload(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q (workloads: %v)", name, names)
}

// simConfig is netsim.Default with the workload's schedule and seed.
func simConfig(p Params, seed uint64) netsim.Config {
	cfg := netsim.Default()
	cfg.Seed = seed
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = p.Warmup, p.Measure, p.Drain
	return cfg
}

// buildDSN builds the DSN-x fabric with x = p-1 (the Figure 10 and
// chaos "dsn" topology).
func buildDSN(tr *Tracer, n int) (*graph.Graph, error) {
	sp := tr.Begin("core.build")
	d, err := core.New(n, core.CeilLog2(n)-1)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	return d.Graph(), nil
}

// newRouter builds the Duato adaptive router with its up*/down* escape
// tables.
func newRouter(tr *Tracer, g *graph.Graph, vcs int) (*netsim.DuatoUpDown, error) {
	sp := tr.Begin("routing.updown_new")
	defer tr.End(sp)
	return netsim.NewDuatoUpDown(g, vcs)
}

// engineRun is the part of both simulator engines the benchmark drives.
type engineRun interface {
	Run() (netsim.Result, error)
}

// runEngine times one engine Run under the span name and records the
// host time, simulated cycles, delivered packets and heap allocations
// under the engine's accumulator keys.
func runEngine(tr *Tracer, acc *Acc, eng string, s engineRun, openCycles int64) (netsim.Result, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := tr.Begin("netsim." + eng + ".run")
	t0 := clock()
	res, err := s.Run()
	dt := clock() - t0
	tr.End(sp)
	runtime.ReadMemStats(&after)
	cycles := openCycles
	if res.ReplayMessages > 0 {
		cycles = res.MakespanCycles
	}
	acc.addRun(eng, dt, cycles, res.DeliveredTotal, after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc)
	acc.addResult(eng, res)
	return res, err
}

// openLoop is one open-loop uniform-traffic run on the named engine.
func openLoop(name, eng string, cfg netsim.Config, g *graph.Graph, rt netsim.Router, rate float64, allowSaturated bool) Op {
	return Op{Name: name, Run: func(tr *Tracer, acc *Acc) (Outcome, error) {
		pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
		sp := tr.Begin("netsim.new")
		var s engineRun
		var err error
		if eng == "vct" {
			s, err = netsim.NewSim(cfg, g, rt, pat, rate)
		} else {
			s, err = netsim.NewWormSim(cfg, g, rt, pat, rate)
		}
		tr.End(sp)
		if err != nil {
			return Outcome{}, err
		}
		res, err := runEngine(tr, acc, eng, s, cfg.WarmupCycles+cfg.MeasureCycles+cfg.DrainCycles)
		if err != nil {
			return Outcome{}, err
		}
		chk := CheckResult(eng, res)
		if chk == nil && res.Saturated && !allowSaturated {
			chk = fmt.Errorf("run saturated below its design load")
		}
		return Outcome{Digest: digest(res), Check: chk}, nil
	}}
}

func setupSparse(tr *Tracer, p Params, seed uint64, _ string) ([]Op, error) {
	cfg := simConfig(p, seed)
	g, err := buildDSN(tr, p.N)
	if err != nil {
		return nil, err
	}
	rt, err := newRouter(tr, g, cfg.VCs)
	if err != nil {
		return nil, err
	}
	sp := tr.Begin("collectives.generate")
	dag, err := collectives.Generate("allreduce", "ring", p.AllreduceRanks, p.ChunkFlits)
	var rep *netsim.Replay
	if err == nil {
		// Ranks land on AllreduceRanks of the fabric's hosts, placed by a
		// seeded permutation of every host.
		dag.Hosts = g.N() * cfg.HostsPerSwitch
		rep = collectives.ToReplay(dag.Permuted(seed))
	}
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	replay := Op{Name: "allreduce", Run: func(tr *Tracer, acc *Acc) (Outcome, error) {
		sp := tr.Begin("netsim.new")
		s, err := netsim.NewSimReplay(cfg, g, rt, rep)
		tr.End(sp)
		if err != nil {
			return Outcome{}, err
		}
		res, err := runEngine(tr, acc, "replay", s, 0)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Digest: digest(res), Check: CheckAllreduce(res)}, nil
	}}
	return []Op{
		openLoop("vct", "vct", cfg, g, rt, p.Rate, false),
		openLoop("wormhole", "worm", cfg, g, rt, p.Rate, false),
		replay,
	}, nil
}

func setupDense(tr *Tracer, p Params, seed uint64, _ string) ([]Op, error) {
	cfg := simConfig(p, seed)
	g, err := buildDSN(tr, p.N)
	if err != nil {
		return nil, err
	}
	rt, err := newRouter(tr, g, cfg.VCs)
	if err != nil {
		return nil, err
	}
	// Past saturation by design: Saturated=true is the expected output.
	return []Op{openLoop("vct", "vct", cfg, g, rt, p.Rate, true)}, nil
}

// chaosOptions is the dsnchaos campaign default with -recover -drain,
// the workload's schedule and seed.
func chaosOptions(p Params, seed uint64, wormhole bool) chaos.Options {
	opt := chaos.DefaultOptions()
	opt.Cfg.Seed = seed
	opt.Cfg.WarmupCycles, opt.Cfg.MeasureCycles, opt.Cfg.DrainCycles = p.Warmup, p.Measure, p.Drain
	opt.Rate = p.Rate
	opt.Wormhole = wormhole
	opt.Recover = true
	opt.Recovery = chaos.RecoveredReplayConfig()
	opt.Recovery.DrainOnFault = true
	return opt
}

func setupChaos(tr *Tracer, p Params, seed uint64, _ string) ([]Op, error) {
	// The dsnchaos set-up: the target, then an engine, which fills in the
	// target's default layout.
	sp := tr.Begin("core.build")
	t, err := chaos.BuildTarget("dsn", p.N)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	base, err := chaos.New(t, chaosOptions(p, seed, false))
	if err != nil {
		return nil, err
	}
	t = base.T
	sp = tr.Begin("chaos.campaign")
	scs, err := chaos.Campaign(t.Graph, t.Layout, base.Opt.FaultWindow(), seed, p.Scenarios)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	var ops []Op
	for _, eng := range []string{"vct", "worm"} {
		opt := chaosOptions(p, seed, eng == "worm")
		cycles := opt.Cfg.WarmupCycles + opt.Cfg.MeasureCycles + opt.Cfg.DrainCycles
		var e *chaos.Engine
		verdict := func(tr *Tracer, acc *Acc, name string, run func() (chaos.Verdict, error)) (Outcome, error) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sp := tr.Begin(name)
			t0 := clock()
			v, err := run()
			dt := clock() - t0
			tr.End(sp)
			runtime.ReadMemStats(&after)
			if err != nil {
				return Outcome{}, err
			}
			acc.addRun(eng, dt, cycles, v.Result.DeliveredTotal, after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc)
			acc.addResult(eng, v.Result)
			acc.add("chaos.scenarios", 1)
			if !v.OK() {
				acc.add("chaos.violations", 1)
			}
			return Outcome{Digest: digest(v), Check: CheckVerdict(eng, v)}, nil
		}
		ops = append(ops, Op{Name: eng + "-golden", Run: func(tr *Tracer, acc *Acc) (Outcome, error) {
			// A fresh engine per pass, so the golden run is measured
			// every pass instead of served from the engine's memo.
			var err error
			if e, err = chaos.New(t, opt); err != nil {
				return Outcome{}, err
			}
			return verdict(tr, acc, "chaos.golden", e.GoldenVerdict)
		}})
		for _, sc := range scs {
			ops = append(ops, Op{Name: eng + "-" + sc.Kind.String(), Run: func(tr *Tracer, acc *Acc) (Outcome, error) {
				return verdict(tr, acc, "chaos.scenario", func() (chaos.Verdict, error) { return e.RunScenario(sc) })
			}})
		}
	}
	return ops, nil
}

func setupSearch(tr *Tracer, p Params, seed uint64, work string) ([]Op, error) {
	cfg := search.DefaultConfig(p.N, p.Degree)
	cfg.Seed = seed
	cfg.Budget = p.Budget
	cfg.Eval.Objective = search.ObjectiveASPL
	cfg.Eval.Sim.Seed = seed
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The seed pool is the search's input; the cold op checks that the
	// search started from it. search.Run takes no pool and derives the
	// same one again, so seeding is timed here and inside wall_s.
	sp := tr.Begin("search.seed")
	pool, err := search.SeedPool(cfg.Eval.Constraints, seed)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	var (
		dir    string
		runner *harness.Runner
		cold   search.Result
		coldJS []byte
	)
	ctx := context.Background()
	coldOp := Op{Name: "cold", Run: func(tr *Tracer, acc *Acc) (Outcome, error) {
		if err := os.MkdirAll(work, 0o755); err != nil {
			return Outcome{}, err
		}
		var err error
		if dir, err = os.MkdirTemp(work, "cache-"); err != nil {
			return Outcome{}, err
		}
		if runner, err = harness.NewRunner(1, dir, false); err != nil {
			return Outcome{}, err
		}
		sp := tr.Begin("search.run")
		t0 := clock()
		res, st, err := search.Run(ctx, runner, cfg)
		dt := clock() - t0
		tr.End(sp)
		if err != nil {
			return Outcome{}, err
		}
		cold = res
		if coldJS, err = json.Marshal(res); err != nil {
			return Outcome{}, err
		}
		acc.addEvals(res.Evaluated, dt)
		acc.add("search.evaluated", float64(res.Evaluated))
		rejected := 0
		for _, r := range res.Rejected {
			rejected += r.Count
		}
		acc.add("search.rejected", float64(rejected))
		acc.add("search.certified", float64(res.Unique-rejected))
		acc.add("harness.cells_executed", float64(st.Executed))
		acc.add("harness.cache_errors", float64(runner.Bench.TotalCacheErrors()))
		chk := CheckSeeds(pool, cfg.Budget, res.Seeds)
		if res.Evaluated != cfg.Budget {
			chk = fmt.Errorf("search evaluated %d candidates, budget %d", res.Evaluated, cfg.Budget)
		}
		for _, c := range res.Front {
			if !c.Eval.Certified {
				chk = fmt.Errorf("front member %s is not certified", c.Eval.Fingerprint)
			}
		}
		return Outcome{Digest: digestBytes(coldJS), Check: chk}, nil
	}}
	replayOp := Op{Name: "replay", Run: func(tr *Tracer, acc *Acc) (Outcome, error) {
		defer os.RemoveAll(dir)
		sp := tr.Begin("harness.replay")
		res, st, err := search.Run(ctx, runner, cfg)
		tr.End(sp)
		if err != nil {
			return Outcome{}, err
		}
		js, err := json.Marshal(res)
		if err != nil {
			return Outcome{}, err
		}
		acc.add("harness.cells_cached", float64(st.Cached))
		if st.Evaluated > 0 {
			acc.add("harness.hit_ratio", float64(st.Cached)/float64(st.Evaluated))
		}
		return Outcome{Digest: digestBytes(js), Check: CheckReplay(coldJS, js, st)}, nil
	}}
	reissue := Op{Name: "reissue", TraceOnly: true, Run: func(tr *Tracer, acc *Acc) (Outcome, error) {
		rdir, err := os.MkdirTemp(work, "reissue-")
		if err != nil {
			return Outcome{}, err
		}
		defer os.RemoveAll(rdir)
		cache, err := harness.OpenCache(rdir)
		if err != nil {
			return Outcome{}, err
		}
		return reissueCandidates(tr, acc, cfg, cache, cold)
	}}
	return []Op{coldOp, replayOp, reissue}, nil
}

// reissueCandidates re-evaluates every candidate of the search result
// through search.Evaluate, then once more stage by stage through each
// layer's public function, and round-trips each evaluation through a
// scratch harness cache. The stage-by-stage pass mirrors the order of
// search.Evaluate.
func reissueCandidates(tr *Tracer, acc *Acc, cfg search.Config, cache *harness.Cache, res search.Result) (Outcome, error) {
	seen := map[string]bool{}
	var cands []search.Candidate
	for _, c := range append(append([]search.Candidate(nil), res.Seeds...), res.Front...) {
		if !seen[c.Eval.Fingerprint] {
			seen[c.Eval.Fingerprint] = true
			cands = append(cands, c)
		}
	}
	maxDeg := cfg.Eval.Constraints.MaxDegree
	var evals []search.Eval
	for _, c := range cands {
		sp := tr.Begin("search.evaluate")
		ev, err := search.Evaluate(c.Genome, cfg.Eval)
		tr.End(sp)
		if err != nil {
			return Outcome{}, err
		}
		evals = append(evals, ev)
		if ev != c.Eval {
			return Outcome{Check: fmt.Errorf("re-issued evaluation of %s differs from the search's", c.Eval.Fingerprint)}, nil
		}
		if !ev.Certified {
			continue
		}
		sp = tr.Begin("graph.build")
		gr, err := c.Genome.Build(maxDeg)
		if err == nil && !gr.Connected() {
			err = fmt.Errorf("certified candidate %s is disconnected", ev.Fingerprint)
		}
		tr.End(sp)
		if err != nil {
			return Outcome{}, err
		}
		sp = tr.Begin("routing.updown_new")
		ud, err := routing.NewUpDown(gr, 0)
		tr.End(sp)
		if err != nil {
			return Outcome{}, err
		}
		sp = tr.Begin("verify.cdg")
		cdg, err := verify.UpDownChannels(gr, ud, 1)
		if err == nil && cdg.FindCycle() != nil {
			err = fmt.Errorf("certified candidate %s has a CDG cycle", ev.Fingerprint)
		}
		tr.End(sp)
		if err != nil {
			return Outcome{}, err
		}
		acc.add("verify.cdg_deps", float64(cdg.Dependencies()))
		acc.add("verify.cdg_calls", 1)
		sp = tr.Begin("verify.totality")
		chk := verify.CheckUpDownTotality(gr, ud)
		tr.End(sp)
		if !chk.OK {
			return Outcome{Check: fmt.Errorf("certified candidate %s fails totality: %s", ev.Fingerprint, chk.Detail)}, nil
		}
		sp = tr.Begin("graph.apsp")
		m := gr.AllPairs()
		tr.End(sp)
		sp = tr.Begin("layout.price")
		lay, err := layout.New(gr.N(), cfg.Eval.Layout)
		var price layout.CostReport
		if err == nil {
			price, err = lay.Price(gr, cfg.Eval.Cost)
		}
		tr.End(sp)
		if err != nil {
			return Outcome{}, err
		}
		if m.ASPL != ev.ASPL || price.Total != ev.CostTotal {
			return Outcome{Check: fmt.Errorf("stage-by-stage evaluation of %s disagrees with search.Evaluate", ev.Fingerprint)}, nil
		}
		key := search.Cell(c.Genome, cfg.Eval, cfg.Eval.Fingerprint()).Key
		sp = tr.Begin("harness.put")
		err = cache.Put(key, ev)
		tr.End(sp)
		if err != nil {
			return Outcome{}, err
		}
		var back search.Eval
		sp = tr.Begin("harness.get")
		ok := cache.Get(key, &back)
		tr.End(sp)
		if !ok || back != ev {
			return Outcome{Check: fmt.Errorf("harness cache did not return the evaluation of %s", ev.Fingerprint)}, nil
		}
	}
	return Outcome{Digest: digest(evals)}, nil
}
