package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"dsnet/internal/chaos"
	"dsnet/internal/netsim"
	"dsnet/internal/search"
)

func span(id, parent int, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Op: -1, Name: "s", Start: start, End: end}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []Span{
		span(0, -1, 0, 100),
		span(1, 0, 10, 40),
		span(2, 1, 20, 30),
		span(3, 0, 50, 60),
	}
	got := SelfTimes(spans)
	want := []time.Duration{100 - 30 - 10, 30 - 10, 10, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []Span{
		span(0, -1, 0, 100),
		span(1, 0, 10, 50),
		span(2, 0, 30, 70),  // overlaps child 1: the union 10..70 counts once
		span(3, 0, 60, 65),  // inside the union
		span(4, 0, 90, 120), // reaches past the parent: clipped to 90..100
	}
	got := SelfTimes(spans)
	if want := time.Duration(100 - 60 - 10); got[0] != want {
		t.Errorf("parent self %v, want %v", got[0], want)
	}
	for i, s := range spans {
		if got[i] < 0 || got[i] > s.Dur() {
			t.Errorf("span %d: self %v outside [0, %v]", i, got[i], s.Dur())
		}
	}
}

func TestTracerOpIDs(t *testing.T) {
	tr := NewTracer(true)
	w := tr.Begin("workload")
	op := tr.BeginOp("op.a")
	c := tr.Begin("child")
	g := tr.Begin("grandchild")
	tr.End(g)
	tr.End(c)
	tr.EndOp(op)
	after := tr.Begin("setup")
	tr.End(after)
	tr.End(w)
	s := tr.Spans()
	if s[c].Op != op || s[g].Op != op || s[op].Op != op {
		t.Errorf("op children carry ops %d,%d,%d, want %d", s[c].Op, s[g].Op, s[op].Op, op)
	}
	if s[g].Parent != c || s[c].Parent != op || s[op].Parent != w {
		t.Errorf("parents %d,%d,%d", s[g].Parent, s[c].Parent, s[op].Parent)
	}
	if s[after].Op != -1 || s[w].Op != -1 {
		t.Errorf("spans outside the op carry op ids %d,%d", s[after].Op, s[w].Op)
	}
	if err := checkSelfTimes(s); err != nil {
		t.Error(err)
	}
	off := NewTracer(false)
	if id := off.Begin("x"); id != -1 || len(off.Spans()) != 0 {
		t.Errorf("disabled tracer recorded span %d", id)
	}
}

// healthy is a Result that satisfies every invariant.
func healthy() netsim.Result {
	return netsim.Result{
		GeneratedTotal: 100, DeliveredTotal: 90, InFlightAtEnd: 6, Lost: 4,
		DeadlocksDetected: 5, DeadlocksRecovered: 3, DeadlocksReleased: 1, DeadlocksLost: 1,
		InjectedFlits: 3300, EjectedFlits: 2970, AbortedFlits: 33,
		ReplayMessages: 10, ReplayDelivered: 10, ReplayCompleted: true,
	}
}

func TestInvariantsRejectDoctoredResults(t *testing.T) {
	if err := CheckResult("worm", healthy()); err != nil {
		t.Fatalf("healthy result rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		eng    string
		doctor func(*netsim.Result)
		check  func(string, netsim.Result) error
	}{
		{"conservation", "vct", func(r *netsim.Result) { r.DeliveredTotal++ }, CheckResult},
		{"lost-uncounted", "vct", func(r *netsim.Result) { r.Lost = 0 }, CheckResult},
		{"recovery-identity", "vct", func(r *netsim.Result) { r.DeadlocksRecovered-- }, CheckResult},
		{"flit-books", "worm", func(r *netsim.Result) { r.EjectedFlits = 3290 }, CheckResult},
		{"negative-flits", "worm", func(r *netsim.Result) { r.AbortedFlits = -1 }, CheckResult},
		{"replay-incomplete", "vct", func(r *netsim.Result) { r.ReplayCompleted = false }, func(_ string, r netsim.Result) error { return CheckAllreduce(r) }},
	} {
		r := healthy()
		tc.doctor(&r)
		if err := tc.check(tc.eng, r); err == nil {
			t.Errorf("%s: doctored result accepted", tc.name)
		}
	}
	// The VCT engine keeps no flit books, so they are not checked there.
	r := healthy()
	r.InjectedFlits, r.EjectedFlits = 0, 0
	if err := CheckResult("vct", r); err != nil {
		t.Errorf("VCT result rejected on flit books: %v", err)
	}
}

func TestCheckVerdict(t *testing.T) {
	v := chaos.Verdict{Scenario: chaos.Scenario{Kind: chaos.GoldenKind}, Result: healthy()}
	if err := CheckVerdict("vct", v); err != nil {
		t.Fatalf("clean verdict rejected: %v", err)
	}
	v.Monitor, v.Detail = netsim.MonitorReconvergence, "doctored"
	if CheckVerdict("vct", v) == nil {
		t.Error("golden verdict with a tripped monitor accepted")
	}
	v = chaos.Verdict{Result: healthy()}
	v.Result.InFlightAtEnd++
	if CheckVerdict("vct", v) == nil {
		t.Error("verdict with a non-conserving result accepted")
	}
}

func TestCheckReplay(t *testing.T) {
	cold := []byte(`{"front":[1,2]}`)
	if err := CheckReplay(cold, []byte(`{"front":[1,2]}`), search.RunStats{Evaluated: 4, Cached: 4}); err != nil {
		t.Fatalf("identical replay rejected: %v", err)
	}
	if CheckReplay(cold, []byte(`{"front":[1,3]}`), search.RunStats{Evaluated: 4, Cached: 4}) == nil {
		t.Error("diverging replay accepted")
	}
	if CheckReplay(cold, cold, search.RunStats{Evaluated: 4, Executed: 1, Cached: 3}) == nil {
		t.Error("replay that executed a cell accepted")
	}
}

func TestCheckSeeds(t *testing.T) {
	pool, err := search.SeedPool(search.Constraints{N: 16, MaxDegree: 5}, 1)
	if err != nil || len(pool) < 3 {
		t.Fatalf("seed pool: %d seeds, %v", len(pool), err)
	}
	var seeds []search.Candidate
	for _, s := range pool[:3] {
		seeds = append(seeds, search.Candidate{Origin: "seed:" + s.Name, Genome: s.Genome})
	}
	if err := CheckSeeds(pool, 3, seeds); err != nil {
		t.Fatalf("the pool's own seeds rejected: %v", err)
	}
	if CheckSeeds(pool, 3, seeds[:2]) == nil {
		t.Error("a short seed list accepted")
	}
	swapped := append([]search.Candidate(nil), seeds...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if CheckSeeds(pool, 3, swapped) == nil {
		t.Error("seeds out of pool order accepted")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// ValidName reports whether a metric or workload name uses only
// letters, digits, '_', '.' and '-', starts with a letter or digit and
// has at most 64 characters.
func ValidName(s string) bool { return nameRE.MatchString(s) }

func TestMetricDeclarations(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !ValidName(name) {
			t.Errorf("%s name %q uses characters outside letters, digits, '_', '.', '-'", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q declared twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range Workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var setupBound, maxBound float64
	for _, m := range EndToEnd {
		check("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %g must be declared and the largest (%g)", setupBound, maxBound)
	}
	for _, m := range PerLayer {
		check("per-layer", m.Name)
	}
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", "é", strings.Repeat("x", 65)} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := SpecJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is out of date; regenerate it with -spec:\n%s", want)
	}
}

func TestPinsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "digests.json")
	p := Params{N: 8}
	pins := Pins{}
	if err := pins.Record(path, "w", p, 3, map[string]string{"op": "abc"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadPins(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Lookup("w", p, 3); got["op"] != "abc" {
		t.Errorf("lookup after record = %v", got)
	}
	if got := back.Lookup("w", Params{N: 9}, 3); got != nil {
		t.Errorf("digests pinned at other params applied: %v", got)
	}
	if got := back.Lookup("w", p, 4); got != nil {
		t.Errorf("digests of another seed applied: %v", got)
	}
	if _, err := LoadPins(pinnedJSON); err != nil {
		t.Errorf("committed digests: %v", err)
	}
}

// layersOf lists, per workload, the per-layer metrics it exercises;
// each must come out above zero even at the tiny size.
var layersOf = map[string][]string{
	"sparse-64": {"netsim.vct.run_s", "netsim.worm.run_s", "netsim.replay.run_s",
		"netsim.vct.ns_per_cycle", "netsim.worm.ns_per_cycle", "netsim.vct.ns_per_pkt", "netsim.worm.ns_per_pkt",
		"netsim.vct.bytes_per_cycle", "netsim.worm.bytes_per_cycle", "netsim.new_s", "netsim.cycles",
		"netsim.delivered_frac", "routing.updown_new_s", "core.build_s", "collectives.generate_s", "trace.wall_s"},
	"dense-1024": {"netsim.vct.run_s", "netsim.vct.ns_per_cycle", "netsim.vct.ns_per_pkt",
		"netsim.vct.bytes_per_cycle", "netsim.new_s", "netsim.cycles", "netsim.delivered_frac",
		"netsim.max_hol_wait_cycles", "routing.updown_new_s", "core.build_s", "trace.wall_s"},
	"chaos-36": {"netsim.vct.run_s", "netsim.worm.run_s", "netsim.vct.ns_per_cycle", "netsim.worm.ns_per_cycle",
		"netsim.vct.ns_per_pkt", "netsim.worm.ns_per_pkt", "netsim.cycles", "netsim.delivered_frac",
		"netsim.dropped", "core.build_s", "chaos.golden_s", "chaos.scenario_s", "chaos.scenario_max_s",
		"chaos.scenarios", "trace.wall_s"},
	"search-256": {"routing.updown_new_s", "verify.cdg_s", "verify.totality_s", "verify.cdg_deps",
		"graph.build_s", "graph.apsp_s", "layout.price_s", "search.run_s", "search.evaluate_s",
		"search.evaluate_max_s", "search.cert_frac", "search.evaluated", "search.certified",
		"harness.put_s", "harness.get_s", "harness.replay_s", "harness.cells_executed",
		"harness.cells_cached", "harness.hit_ratio", "trace.wall_s"},
}

// TestTinyPasses runs every workload at its tiny size, traced, and
// checks that it passes its output checks and emits every declared
// metric, each finite, with the end-to-end ones and the layers the
// workload exercises above zero.
func TestTinyPasses(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if layersOf[w.Name] == nil {
				t.Fatalf("no exercised layers listed for %s", w.Name)
			}
			dir := t.TempDir()
			d, v, err := Measure(RunConfig{Workload: w, Params: w.Tiny, Seed: 1, Traced: true,
				Work: filepath.Join(dir, "work"), Profile: filepath.Join(dir, "prof")})
			if err != nil {
				t.Fatal(err)
			}
			// One profile for the set-ups and one per traced pass.
			if got, want := len(d.profiles), 1+len(d.passesOf(true)); got != want {
				t.Errorf("%d CPU profiles written, want %d", got, want)
			}
			for _, f := range d.profiles {
				if st, err := os.Stat(f); err != nil || st.Size() == 0 {
					t.Errorf("CPU profile %s: %v", f, err)
				}
			}
			if v.Failed != 0 || v.Attempted == 0 {
				t.Fatalf("%d of %d ops failed: %v", v.Failed, v.Attempted, v.Failures)
			}
			e2e, pl := d.EndToEndValues(), d.PerLayerValues()
			for _, m := range EndToEnd {
				if x, ok := e2e[m.Name]; !ok || !(x > 0) || math.IsInf(x, 0) {
					t.Errorf("end-to-end %s = %v, %v", m.Name, x, ok)
				}
			}
			for _, m := range PerLayer {
				if x, ok := pl[m.Name]; !ok || math.IsNaN(x) || math.IsInf(x, 0) {
					t.Errorf("per-layer %s = %v, %v", m.Name, x, ok)
				}
			}
			if x := pl["search.cert_frac"]; x > 1 {
				t.Errorf("search.cert_frac = %v, above 1", x)
			}
			for _, name := range layersOf[w.Name] {
				if !(pl[name] > 0) {
					t.Errorf("per-layer %s = %v, want > 0", name, pl[name])
				}
			}
			for _, traced := range []bool{false, true} {
				line, err := resultLine(d, v, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(line, []byte(`{"correct":true,`)) {
					t.Errorf("result line %s", line)
				}
			}
		})
	}
}

// TestCertFrac checks that the certification share counts only the
// re-issue op's stage spans, so it is a share of the same calls.
func TestCertFrac(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{ID: 0, Parent: -1, Op: 0, Name: "op.cold", Start: 0, End: ms(100)},
		{ID: 1, Parent: 0, Op: 0, Name: "verify.cdg", Start: ms(1), End: ms(90)},
		{ID: 2, Parent: -1, Op: 2, Name: "op.reissue", Start: ms(100), End: ms(200)},
		{ID: 3, Parent: 2, Op: 2, Name: "search.evaluate", Start: ms(100), End: ms(150)},
		{ID: 4, Parent: 2, Op: 2, Name: "graph.build", Start: ms(150), End: ms(160)},
		{ID: 5, Parent: 2, Op: 2, Name: "routing.updown_new", Start: ms(160), End: ms(170)},
		{ID: 6, Parent: 2, Op: 2, Name: "verify.cdg", Start: ms(170), End: ms(180)},
		{ID: 7, Parent: 2, Op: 2, Name: "verify.totality", Start: ms(180), End: ms(190)},
		{ID: 8, Parent: 2, Op: 2, Name: "graph.apsp", Start: ms(190), End: ms(195)},
		{ID: 9, Parent: 2, Op: 2, Name: "layout.price", Start: ms(195), End: ms(200)},
	}
	if got, want := certFrac(spans), 30.0/50.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("certFrac = %v, want %v", got, want)
	}
	if got := certFrac(spans[:2]); got != 0 {
		t.Errorf("certFrac without a re-issue op = %v, want 0", got)
	}
}
