package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"dsnet/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload to run: sparse-64, dense-1024, chaos-36 or search-256")
	seed := fl.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fl.Float64("seconds", RunSeconds, "measurement window after set-up, in seconds")
	trace := fl.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced end-to-end run")
	root := fl.String("root", ".", "checkout root; traces, profiles and scratch caches go under its .bench_build/perfbench")
	record := fl.String("record", "", "pin this run's output digests into the given digests file")
	spec := fl.Bool("spec", false, "print the BENCHMARK.json document this program implements and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *spec {
		data, err := SpecJSON()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		stdout.Write(data)
		return 0
	}
	w, err := FindWorkload(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	pins, err := LoadPins(pinnedJSON)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out := filepath.Join(*root, ".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	cfg := RunConfig{
		Workload: w, Params: w.Default, Seed: *seed,
		Window: time.Duration(*seconds * float64(time.Second)),
		Traced: *trace == 1, Pins: pins.Lookup(w.Name, w.Default, *seed),
		Work: filepath.Join(out, fmt.Sprintf("work-%d", os.Getpid())),
	}
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", w.Name, *seed))
	if cfg.Traced {
		cfg.Profile = base
	}
	d, v, err := Measure(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	facts := MachineFacts(*root)
	report(stdout, facts, cfg, d, v)
	if cfg.Traced {
		if err := writeSpans(base+".spans.json", d.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# artifacts: %s.spans.json %s\n", base, strings.Join(d.profiles, " "))
	}
	if *record != "" {
		if err := pins.Record(*record, w.Name, w.Default, *seed, v.Digests); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := resultLine(d, v, cfg.Traced)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// RunConfig is one benchmark run.
type RunConfig struct {
	Workload Workload
	Params   Params
	Seed     uint64
	Window   time.Duration // measured passes continue until it has passed
	Traced   bool
	Pins     map[string]string // committed digests by op, nil if none
	Work     string            // scratch directory, removed at the end
	Profile  string            // CPU profile path prefix for the set-ups and traced passes; "" for none
}

// Verdict is the output check of one run.
type Verdict struct {
	Attempted, Failed int
	Failures          []string          // first few failure messages
	Digests           map[string]string // first-pass digest by op
	Pinned            int               // ops compared with a committed digest
}

func (v *Verdict) fail(format string, args ...any) {
	v.Failed++
	if len(v.Failures) < 8 {
		v.Failures = append(v.Failures, fmt.Sprintf(format, args...))
	}
}

// Measure sets the workload up several times, then runs passes over
// its ops, one op at a time, until the window has passed. A traced run
// interleaves traced and untraced passes in the order t u u t, which
// cancels a linear drift in machine speed, so its trace overhead is the
// difference of their medians. With cfg.Profile set, the CPU profiler
// runs over the set-ups and over each traced pass, never over an
// untraced one, so the trace overhead includes the profiler's cost.
func Measure(cfg RunConfig) (*runData, *Verdict, error) {
	const (
		minSetups, maxSetups = 5, 1000
		setupBudget          = 500 * time.Millisecond
	)
	minPasses := 2
	if cfg.Traced {
		minPasses = 4
	}
	defer os.RemoveAll(cfg.Work)
	w := cfg.Workload
	d := &runData{w: w}
	v := &Verdict{Digests: map[string]string{}}
	tr := NewTracer(cfg.Traced)
	top := tr.Begin("workload." + w.Name)

	var ops []Op
	var spent time.Duration
	if err := d.startProfile(cfg.Profile, "setup"); err != nil {
		return nil, nil, err
	}
	for i := 0; i < minSetups || (i < maxSetups && spent < setupBudget); i++ {
		sp := tr.Begin("setup")
		t0 := clock()
		var err error
		ops, err = w.Setup(tr, cfg.Params, cfg.Seed, cfg.Work)
		dt := clock() - t0
		tr.End(sp)
		if err != nil {
			d.stopProfile()
			return nil, nil, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		d.setup = append(d.setup, dt)
		spent += dt
	}
	if err := d.stopProfile(); err != nil {
		return nil, nil, err
	}

	deadline := clock() + cfg.Window
	broken := false
	for i := 0; !broken && (i < minPasses || clock() < deadline); i++ {
		traced := cfg.Traced && (i%4 == 0 || i%4 == 3)
		tr.on = traced
		p := pass{traced: traced, acc: newAcc()}
		// Every pass starts from a collected heap with its free pages
		// returned to the OS, so its peak resident set does not depend on
		// how far the background scavenger got after the previous one.
		debug.FreeOSMemory()
		resetPeakRSS()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if traced {
			if err := d.startProfile(cfg.Profile, fmt.Sprintf("pass%d", i)); err != nil {
				return nil, nil, err
			}
		}
		for _, op := range ops {
			if op.TraceOnly && !traced {
				continue
			}
			id := tr.BeginOp("op." + op.Name)
			t0 := clock()
			out, err := op.Run(tr, p.acc)
			dt := clock() - t0
			tr.EndOp(id)
			if !op.TraceOnly {
				p.wall += dt
			}
			v.Attempted++
			if err != nil {
				v.fail("%s: %v", op.Name, err)
				broken = true // later ops may depend on this one
				break
			}
			if out.Check != nil {
				v.fail("%s: %v", op.Name, out.Check)
				continue
			}
			if first, ok := v.Digests[op.Name]; !ok {
				v.Digests[op.Name] = out.Digest
				if want, ok := cfg.Pins[op.Name]; ok {
					v.Pinned++
					if want != out.Digest {
						v.fail("%s: digest %.12s differs from the committed %.12s", op.Name, out.Digest, want)
					}
				}
			} else if first != out.Digest {
				v.fail("%s: digest %.12s differs from the first pass's %.12s", op.Name, out.Digest, first)
			}
		}
		if err := d.stopProfile(); err != nil {
			return nil, nil, err
		}
		runtime.ReadMemStats(&ms1)
		p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
		p.peak = peakRSS()
		d.passes = append(d.passes, p)
	}
	tr.on = true
	tr.End(top)
	d.spans = tr.Spans()
	if err := checkSelfTimes(d.spans); err != nil {
		v.fail("trace: %v", err)
	}
	return d, v, nil
}

// startProfile starts the CPU profiler into <prefix>.<part>.cpu.pprof;
// it does nothing when prefix is empty.
func (d *runData) startProfile(prefix, part string) error {
	if prefix == "" {
		return nil
	}
	f, err := os.Create(fmt.Sprintf("%s.%s.cpu.pprof", prefix, part))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	d.profile = f
	return nil
}

// stopProfile stops the profile startProfile started, if any, and
// records its file.
func (d *runData) stopProfile() error {
	if d.profile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := d.profile.Close()
	d.profiles = append(d.profiles, d.profile.Name())
	d.profile = nil
	return err
}

// checkSelfTimes verifies that within every operation the self times
// of its spans add up to no more than the operation's wall time.
func checkSelfTimes(spans []Span) error {
	self := SelfTimes(spans)
	total := map[int]time.Duration{}
	for i, s := range spans {
		if s.Op >= 0 {
			total[s.Op] += self[i]
		}
	}
	for op, t := range total { // dsnlint:ok maprange any-violation check
		if t > spans[op].Dur() {
			return fmt.Errorf("op %s: self times sum to %v, above its wall %v", spans[op].Name, t, spans[op].Dur())
		}
	}
	return nil
}

// resultLine is the run's last output line.
func resultLine(d *runData, v *Verdict, traced bool) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	decl, values := EndToEnd, d.EndToEndValues()
	if traced {
		decl, values = PerLayer, d.PerLayerValues()
	}
	metrics := map[string]val{}
	for _, m := range decl {
		x := values[m.Name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is not finite", m.Name)
		}
		metrics[m.Name] = val{x, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{v.Failed == 0, v.Attempted, v.Failed, metrics})
}

// Facts describes the machine and code a report was measured on.
type Facts struct {
	CPU        string
	NProc      int
	GOMAXPROCS int
	Go         string
	Commit     string // git HEAD, "none" outside a git checkout
	Source     string // SHA-256 over the checkout's Go sources and go.mod files
	Engine     string
}

// MachineFacts gathers the facts every report starts with.
func MachineFacts(root string) Facts {
	f := Facts{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "none", Engine: harness.EngineVersion,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPU = strings.TrimSpace(val)
				break
			}
		}
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			f.Commit = strings.TrimSpace(string(out))
		}
	}
	f.Source = sourceDigest(root)
	return f
}

// sourceDigest hashes every .go and go.mod file under root (skipping
// build output and VCS metadata), so a report names its code even in a
// checkout that is not a git repository.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && (e.Name() == ".git" || e.Name() == ".bench_build" || e.Name() == ".dsncache") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(e.Name(), ".go") || e.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func writeSpans(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// report prints the human-readable report that precedes the result
// line: machine facts, parameters, the output check, then every metric
// by name with its unit.
func report(w io.Writer, f Facts, cfg RunConfig, d *runData, v *Verdict) {
	mode := "untraced"
	if cfg.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# perfbench %s seed=%d window=%gs %s\n", cfg.Workload.Name, cfg.Seed, cfg.Window.Seconds(), mode)
	fmt.Fprintf(w, "# machine: cpu=%q nproc=%d gomaxprocs=%d go=%s\n", f.CPU, f.NProc, f.GOMAXPROCS, f.Go)
	fmt.Fprintf(w, "# code: commit=%s source=%s engine=%s\n", f.Commit, f.Source, f.Engine)
	fmt.Fprintf(w, "# params: %s\n", cfg.Params)
	pinned := "no committed digests for this seed"
	if cfg.Pins != nil {
		pinned = fmt.Sprintf("%d ops compared with committed digests", v.Pinned)
	}
	fmt.Fprintf(w, "# check: %d ops attempted, %d failed; %s\n", v.Attempted, v.Failed, pinned)
	for _, msg := range v.Failures {
		fmt.Fprintf(w, "# FAILED %s\n", msg)
	}
	untraced := d.passesOf(false)
	fmt.Fprintf(w, "# passes: %d untraced, %d traced; %d set-ups\n", len(untraced), len(d.passes)-len(untraced), len(d.setup))
	fmt.Fprint(w, "# pass wall_s:")
	for _, p := range d.passes {
		mark := ""
		if p.traced {
			mark = "t"
		}
		fmt.Fprintf(w, " %.4f%s", p.wall.Seconds(), mark)
	}
	fmt.Fprintln(w)

	e2e := d.EndToEndValues()
	cyc, pkts, evals := rates(untraced)
	failedFrac := 0.0
	if v.Attempted > 0 {
		failedFrac = float64(v.Failed) / float64(v.Attempted)
	}
	line := func(name string, x float64, unit string) { fmt.Fprintf(w, "%-34s %14.6g %s\n", name, x, unit) }
	line("setup_s", e2e["setup_s"], "s")
	line("wall_s", e2e["wall_s"], "s")
	if cfg.Workload.Sim {
		line("sim_cycles_per_s", cyc, "1/s")
		line("sim_pkts_per_s", pkts, "1/s")
	} else {
		line("evals_per_s", evals, "1/s")
	}
	line("work_per_s", e2e["work_per_s"], "1/s")
	line("peak_rss_mb", e2e["peak_rss_mb"], "MB")
	line("alloc_mb", e2e["alloc_mb"], "MB")
	line("failed_frac", failedFrac, "ratio")
	if !cfg.Traced {
		return
	}
	pl := d.PerLayerValues()
	fmt.Fprintln(w, "# per-layer metrics (traced passes)")
	for _, m := range PerLayer {
		line(m.Name, pl[m.Name], m.Unit)
	}
	fmt.Fprintln(w, "# span self time (traced passes): name calls total_s median_s")
	st := spanStats(d.spans)
	names := make([]string, 0, len(st))
	for n := range st { // dsnlint:ok maprange keys sorted below
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "#   %-28s %6d %12.6f %12.6f\n", n, len(st[n]), sum(st[n]), median(st[n]))
	}
}

// SpecJSON renders the BENCHMARK.json document this program implements.
func SpecJSON() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []workload
	for _, w := range Workloads {
		ws = append(ws, workload{w.Name, w.Why})
	}
	var ls []layer
	for _, m := range PerLayer {
		ls = append(ls, layer{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []Metric   `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{[]string{"bash", "perfbench/run.sh"}, []string{"perfbench"}, RunSeconds, ws, EndToEnd, ls}, "", "  ")
	return append(data, '\n'), err
}

// RunSeconds is the measurement window BENCHMARK.json asks the driver for.
const RunSeconds = 15
