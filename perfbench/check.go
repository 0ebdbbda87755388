package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"dsnet/internal/chaos"
	"dsnet/internal/harness"
	"dsnet/internal/netsim"
	"dsnet/internal/search"
)

// CheckResult applies the invariants a simulator Result must hold,
// whatever the load or fault plan, and returns the first one that
// fails. eng is "worm" for the wormhole engine, whose flit books are
// checked too; the VCT engine moves whole packets and keeps none.
func CheckResult(eng string, r netsim.Result) error {
	if r.GeneratedTotal != r.DeliveredTotal+r.InFlightAtEnd+r.Lost {
		return fmt.Errorf("conservation: generated %d != delivered %d + in flight %d + lost %d",
			r.GeneratedTotal, r.DeliveredTotal, r.InFlightAtEnd, r.Lost)
	}
	if r.DeadlocksDetected != r.DeadlocksRecovered+r.DeadlocksReleased+r.DeadlocksLost {
		return fmt.Errorf("recovery identity: detected %d != recovered %d + released %d + lost %d",
			r.DeadlocksDetected, r.DeadlocksRecovered, r.DeadlocksReleased, r.DeadlocksLost)
	}
	if eng == "worm" && (r.InjectedFlits < 0 || r.EjectedFlits < 0 || r.AbortedFlits < 0 ||
		r.InjectedFlits-r.EjectedFlits-r.AbortedFlits < 0) {
		return fmt.Errorf("flit books: injected %d - ejected %d - aborted %d is negative",
			r.InjectedFlits, r.EjectedFlits, r.AbortedFlits)
	}
	return nil
}

// CheckAllreduce holds a closed-loop collective replay to the Result
// invariants and to completing every message.
func CheckAllreduce(r netsim.Result) error {
	if err := CheckResult("vct", r); err != nil {
		return err
	}
	if !r.ReplayCompleted {
		return fmt.Errorf("allreduce replay did not complete (%d of %d messages)", r.ReplayDelivered, r.ReplayMessages)
	}
	return nil
}

// CheckVerdict holds a chaos verdict, golden included, to a clean
// monitor outcome and its Result to the Result invariants.
func CheckVerdict(eng string, v chaos.Verdict) error {
	if !v.OK() {
		return fmt.Errorf("%s: monitor %s: %s", v.Scenario, v.Monitor, v.Detail)
	}
	return CheckResult(eng, v.Result)
}

// CheckReplay holds the search replay gate: the replay from the cache
// executed no cell and produced the cold result byte for byte.
func CheckReplay(cold, replay []byte, st search.RunStats) error {
	if st.Executed != 0 {
		return fmt.Errorf("search replay executed %d cells, want 0", st.Executed)
	}
	if !bytes.Equal(cold, replay) {
		return fmt.Errorf("search replay is not byte-identical to the cold run")
	}
	return nil
}

// CheckSeeds checks that a search started from the seed pool the
// benchmark generated: its evaluated seeds are the pool's first budget
// members, in order.
func CheckSeeds(pool []search.Seeded, budget int, seeds []search.Candidate) error {
	if want := min(len(pool), budget); len(seeds) != want {
		return fmt.Errorf("search evaluated %d seeds, want %d from the seed pool", len(seeds), want)
	}
	for i, c := range seeds {
		if c.Origin != "seed:"+pool[i].Name || c.Genome.Fingerprint() != pool[i].Genome.Fingerprint() {
			return fmt.Errorf("search seed %d is %s, want seed:%s from the seed pool", i, c.Origin, pool[i].Name)
		}
	}
	return nil
}

// digest is the SHA-256 of v's JSON encoding, the canonical form of a
// Result, Verdict or search document.
func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return digestBytes(data)
}

func digestBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Pins holds committed output digests: engine version -> workload ->
// pinned set. A set applies only at the exact parameters it was
// recorded with.
type Pins map[string]map[string]PinSet

// PinSet is one workload's digests: seed -> op name -> digest.
type PinSet struct {
	Params string                       `json:"params"`
	Seeds  map[string]map[string]string `json:"seeds"`
}

//go:embed digests.json
var pinnedJSON []byte

// LoadPins parses a digests document.
func LoadPins(data []byte) (Pins, error) {
	pins := Pins{}
	if err := json.Unmarshal(data, &pins); err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	return pins, nil
}

// Lookup returns the committed digests of one workload run under the
// current engine version, or nil when none are pinned for it.
func (p Pins) Lookup(workload string, params Params, seed uint64) map[string]string {
	set, ok := p[harness.EngineVersion][workload]
	if !ok || set.Params != params.String() {
		return nil
	}
	return set.Seeds[strconv.FormatUint(seed, 10)]
}

// Record pins one run's digests and writes the document to path.
func (p Pins) Record(path, workload string, params Params, seed uint64, ops map[string]string) error {
	byWorkload := p[harness.EngineVersion]
	if byWorkload == nil {
		byWorkload = map[string]PinSet{}
		p[harness.EngineVersion] = byWorkload
	}
	set := byWorkload[workload]
	if set.Params != params.String() {
		set = PinSet{Params: params.String(), Seeds: map[string]map[string]string{}}
	}
	set.Seeds[strconv.FormatUint(seed, 10)] = ops
	byWorkload[workload] = set
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
