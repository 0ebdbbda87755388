// Command perfbench is the repository's benchmark: four named workloads
// that time what people run with this code — the Section VII
// cycle-accurate simulator at the Figure 10 size and at the
// 1024-switch end of Figures 7–9, chaos campaigns, and the topology
// design-space search — end to end and layer by layer.
//
// Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload sparse-64 --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload search-256 --seed 2 --seconds 15 --trace 1
//
// run.sh builds the program from the checkout's sources into
// .bench_build/ (Go build cache included) and runs it. The output is a
// report — machine facts (CPU model, nproc, GOMAXPROCS, Go version,
// commit, a digest of the Go sources, engine version), the workload's
// seed and parameters, the output check and every metric by name with
// its unit — followed by one JSON line:
//
//	{"correct": true, "attempted": 36, "failed": 0, "metrics": {"setup_s": {"value": 0.0011, "unit": "s"}, ...}}
//
// # How a run measures
//
// Everything runs closed loop in one process: one operation at a time,
// harness runners with Jobs 1, GOMAXPROCS at most min(nproc, 2). All
// times are host time, never simulated time. The workload seed is the
// only input; topology, traffic, collective placement, fault scenarios
// and search proposals are all generated from it.
//
// A run first sets the workload up at least five times (until 0.5 s is
// spent, at most 1000 times) and reports the median as setup_s. It then
// runs passes — every operation of the workload once, in order — until
// the --seconds window has passed, at least two passes. Every
// end-to-end metric is a median over passes of that pass's value.
//
// # Workloads
//
//   - sparse-64: a 64-switch DSN-x (x = p-1, the Figure 10 fabric), 4
//     hosts per switch, netsim.Default with Duato adaptive routing over
//     an up*/down* escape. Three operations: uniform open loop at 0.01
//     flits/cycle/host on VCT, the same on wormhole (20k cycles each),
//     and a ring allreduce of 64 ranks placed by a seeded permutation on
//     the 256 hosts, replayed closed loop on VCT. Why: at this load
//     scanning every switch × input × VC each cycle is most of the CPU
//     and routing work per packet is negligible, and it is the only
//     workload with the closed-loop replay behind the slowest sweep.
//   - dense-1024: a 1024-switch DSN-x with the same configuration and
//     router, uniform open loop at 0.1 on VCT for 2500 cycles. It runs
//     past saturation (about 40% of generated packets delivered);
//     Saturated=true is an expected output, not a failure. Why: blocked
//     head packets recompute their candidates every cycle and idle
//     scanning is nearly absent; its set-up (the 1024-switch build and
//     up*/down* tables) is the largest of the simulation workloads.
//   - chaos-36: the dsnchaos campaign on the 36-switch "dsn" target with
//     -recover -drain: golden plus burst, rolling-cabinet,
//     flapping-link and switch-storm scenarios with every monitor on,
//     once on VCT and once on wormhole. The drain phase is 40k cycles
//     instead of the campaign default 200k so a pass fits the window
//     several times. Why: it drives netsim through fault epochs,
//     up*/down* rebuilds on survivor graphs, drop/retry transport, stall
//     clocks and drain pauses, so any routing-state cache or idle skip
//     pays its invalidation cost here.
//   - search-256: a search.Run evolve driver with the aspl objective, 256
//     switches, port budget 7 and 32 evaluations into a fresh cache,
//     followed by a replay of the whole search from that cache. Why: no
//     simulation runs; certification dominates each candidate, so every
//     netsim optimisation must show no change here, while the graph,
//     routing, verify, layout, search and harness layers do the work.
//
// Excluded: the dsnserve storm (deferred in the ROADMAP, and its 32
// concurrent clients exceed the two CPUs a closed-loop single-process
// run may use) and the full tier-1 test suite (6.5 minutes per run, and
// its cost is the same simulator that sparse-64 and chaos-36 measure).
//
// # End-to-end metrics (untraced runs)
//
// The result line carries five metrics, defined on every workload and
// never zero:
//
//   - setup_s: median time from workload start to the first operation:
//     topology build, router and escape tables, collective generation,
//     and on chaos-36 what dsnchaos sets up (chaos.BuildTarget,
//     chaos.New and the scenario campaign), and the search's
//     configuration and seed pool on search-256 (see Limitations).
//   - wall_s: median time of one pass over the workload's operations.
//   - work_per_s: simulated cycles per second of host time inside the
//     engines (sim_cycles_per_s) on the simulation workloads;
//     candidates evaluated per second on the cold search
//     (evals_per_s) on search-256.
//   - peak_rss_mb: peak resident memory (VmHWM) of the process, which
//     runs only that workload, during one pass; median over passes. Each
//     pass starts from a collected heap with free pages returned to the
//     OS and the kernel's peak count reset, because a whole-run VmHWM
//     catches rare GC-timing spikes (12 to 29 MB on search-256).
//   - alloc_mb: median Go heap bytes allocated by one pass.
//
// The report also prints sim_cycles_per_s, sim_pkts_per_s (delivered
// packets per second of engine time; skipping idle cycles cannot
// inflate it), evals_per_s and failed_frac (failed over attempted
// operations, also carried by the result line's attempted and failed).
// They stay out of the result line because a metric there must exist
// and be non-zero on every workload.
//
// # Output checks
//
// Every operation's result is checked, and a failed check counts in
// failed:
//
//   - conservation: GeneratedTotal == DeliveredTotal + InFlightAtEnd + Lost;
//   - the recovery identity: detected == recovered + released + lost;
//   - the wormhole flit books are never negative;
//   - the allreduce replay completes;
//   - every chaos verdict, the golden run included, is clean;
//   - the search starts from the seed pool generated in set-up;
//   - the search replay executes no cell and is byte-identical;
//   - sparse-64's open-loop runs are not saturated;
//   - the re-issued search candidates evaluate exactly as in the search.
//
// Each operation's canonical result (Result, Verdict or search Result
// as JSON) is digested. Every pass must reproduce the first pass's
// digests, and digests.json pins them for engine version dsn-sim/2 at
// the default parameters for seed 1 (the default) and seed 2 (held out,
// so a later gain can be confirmed on a seed not used while making it).
// A pinned digest that differs is a failure; a change that is meant to
// alter simulated results bumps the engine version and re-pins with
// -record. The simulator has no hardware reference in the repository,
// so it is unvalidated: simulated statistics are checked for identity
// and no error figure is reported.
//
// # Traced runs and per-layer metrics
//
// With --trace 1 the run interleaves traced and untraced passes in the
// order t u u t (at least four passes), so a linear drift in machine
// speed does not bias the trace overhead. Spans
// are kept in memory and written once at the end to
// .bench_build/perfbench/<workload>-seed<n>.spans.json. The CPU profiler
// runs over the set-ups and over each traced pass, never over an
// untraced one, and writes <workload>-seed<n>.setup.cpu.pprof and
// .pass<i>.cpu.pprof beside it; go tool pprof merges the files given
// together. There is one span for the workload, one per set-up,
// one per operation (its id is the Op of all its children) and one per
// layer call made by the benchmark; each records name, start, end and
// parent. Spans inside the program are left to later work. A layer's
// self time is its span's duration minus the part its children cover.
// Time metrics are the median self time per call over the traced
// passes; counts come from the first traced pass. trace.wall_s is the
// traced pass median and trace.overhead_s its difference from the
// untraced pass median of the same run, so it covers span recording
// and the CPU profiler together. It is a difference of medians of a
// few passes each (two and two on every workload but sparse-64),
// so host noise larger than the overhead can make it negative. A layer the workload never
// calls reports 0. search-256 adds a traced-only operation that
// re-issues every seed and front candidate through search.Evaluate and
// then stage by stage through each layer, and round-trips its
// evaluation through a scratch harness cache; it is not part of
// wall_s. search.cert_frac is the share of that stage-by-stage
// evaluation spent certifying (routing.NewUpDown, verify.UpDownChannels
// with FindCycle, and CheckUpDownTotality) over all of its stages
// (graph build, certification, all-pairs distances, layout price),
// summed over the same calls, so it never exceeds 1.
//
// Each per-layer metric and the end-to-end metric it should move:
//
//	netsim.{vct,worm}.run_s, .ns_per_cycle, .ns_per_pkt
//	    -> work_per_s, wall_s on sparse-64 (idle scan), dense-1024
//	       (candidates, VCT only) and chaos-36 (fault paths)
//	netsim.replay.run_s -> wall_s on sparse-64
//	netsim.{vct,worm}.allocs_per_cycle, .bytes_per_cycle
//	    -> alloc_mb, peak_rss_mb on the three simulation workloads
//	netsim.new_s -> wall_s (a Sim runs once, so every operation builds one)
//	netsim.cycles, .delivered_frac, .escape_frac, .max_hol_wait_cycles
//	    -> modelled counts; identical under any speed-only change
//	netsim.dropped, .retried, .lost, .retry_ratio -> fault transport on chaos-36
//	routing.updown_new_s -> setup_s on dense-1024, work_per_s on search-256
//	verify.cdg_s, .totality_s, .cdg_deps -> work_per_s on search-256 only
//	graph.build_s, graph.apsp_s -> work_per_s on search-256
//	core.build_s -> setup_s on sparse-64, dense-1024, chaos-36
//	    (chaos.BuildTarget there)
//	layout.price_s -> work_per_s on search-256
//	collectives.generate_s -> setup_s on sparse-64
//	chaos.golden_s, .scenario_s, .scenario_max_s, .scenarios, .violations
//	    -> wall_s on chaos-36
//	recovery.detected, .recovered, .released, .lost, .drain_paused_cycles
//	    -> work_per_s on chaos-36
//	search.run_s, .evaluate_s, .evaluate_max_s, .cert_frac, .evaluated,
//	search.certified, .rejected -> work_per_s on search-256
//	harness.put_s, .get_s, .replay_s, .cells_executed, .cells_cached,
//	harness.hit_ratio, .cache_errors -> wall_s on search-256
//
// Limitations: on chaos-36 the engine is driven through
// chaos.Engine.RunScenario, so netsim.*.run_s and the rates there
// include building the router and the Sim; and the up*/down* rebuilds
// at fault epochs happen inside Run, so they show only in
// netsim.*.run_s on chaos-36, never in routing.updown_new_s. On
// search-256, set-up generates the seed pool with search.SeedPool and
// the cold op checks that the search started from it, but search.Run
// takes no pool and derives the same one again on every cold pass, so
// seeding is timed both in setup_s and in wall_s and search.run_s.
// Without it the workload's set-up would be well under a microsecond
// of configuration work, whose median moved by a factor of two from
// one process to the next.
//
// BASELINE.md holds the first traced per-layer table.
package main
