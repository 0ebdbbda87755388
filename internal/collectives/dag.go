// Package collectives models HPC collective-communication workloads as
// deterministic message DAGs and generates the classic algorithms (ring
// and recursive-halving/doubling allreduce, binomial-tree broadcast and
// reduce, ring allgather, pairwise-exchange all-to-all) over the
// simulator's host space.
//
// A DAG is a closed-loop workload: each message may inject only after
// every message it depends on has been *delivered*, so the cost of the
// workload is a dependency-ordered makespan rather than the steady-state
// latency of the open-loop traffic patterns in internal/traffic. The
// closed-loop replay engine in internal/netsim (Spec.Replay) executes a
// DAG cycle-accurately and reports the makespan with a per-phase
// breakdown.
package collectives

import (
	"fmt"
	"math/rand/v2"
)

// Message is one point-to-point transfer of a collective: Src sends
// Flits flits to Dst once every message in Deps has been delivered.
type Message struct {
	ID    int32
	Src   int32 // source host
	Dst   int32 // destination host
	Flits int32 // payload size in flits
	// Deps lists the IDs of messages that must be fully delivered before
	// this one may inject at Src. Generators emit messages in a
	// topological order (every dependency has a smaller ID).
	Deps []int32
	// Phase indexes DAG.PhaseNames: the algorithm stage this message
	// belongs to (e.g. reduce-scatter vs allgather), driving the
	// per-phase makespan breakdown.
	Phase int32
}

// DAG is a complete collective workload over Hosts hosts.
type DAG struct {
	Collective string // "allreduce", "allgather", "broadcast", "reduce", "all-to-all"
	Algo       string // "ring", "halving-doubling", "binomial", "pairwise"
	Hosts      int
	ChunkFlits int // the generator's base chunk size
	PhaseNames []string
	Messages   []Message
}

// Name identifies the workload in reports.
func (d *DAG) Name() string { return d.Collective + "/" + d.Algo }

// Validate checks message well-formedness and that the dependency graph
// is acyclic (Kahn's algorithm), so a replay can always make progress.
func (d *DAG) Validate() error {
	if d.Hosts < 2 {
		return fmt.Errorf("collectives: %s over %d hosts (need >= 2)", d.Name(), d.Hosts)
	}
	n := len(d.Messages)
	indeg := make([]int, n)
	dependents := make([][]int32, n)
	for i, m := range d.Messages {
		if int(m.ID) != i {
			return fmt.Errorf("collectives: message %d has ID %d", i, m.ID)
		}
		if m.Src < 0 || int(m.Src) >= d.Hosts || m.Dst < 0 || int(m.Dst) >= d.Hosts {
			return fmt.Errorf("collectives: message %d endpoints (%d -> %d) outside [0,%d)", i, m.Src, m.Dst, d.Hosts)
		}
		if m.Src == m.Dst {
			return fmt.Errorf("collectives: message %d sends host %d to itself", i, m.Src)
		}
		if m.Flits < 1 {
			return fmt.Errorf("collectives: message %d has %d flits", i, m.Flits)
		}
		if m.Phase < 0 || int(m.Phase) >= len(d.PhaseNames) {
			return fmt.Errorf("collectives: message %d phase %d outside [0,%d)", i, m.Phase, len(d.PhaseNames))
		}
		for _, dep := range m.Deps {
			if dep < 0 || int(dep) >= n {
				return fmt.Errorf("collectives: message %d depends on unknown message %d", i, dep)
			}
			indeg[i]++
			dependents[dep] = append(dependents[dep], int32(i))
		}
	}
	ready := make([]int32, 0, n)
	for i, deg := range indeg {
		if deg == 0 {
			ready = append(ready, int32(i))
		}
	}
	seen := 0
	for len(ready) > 0 {
		m := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		seen++
		for _, dep := range dependents[m] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("collectives: %s dependency graph has a cycle (%d of %d messages reachable)", d.Name(), seen, n)
	}
	return nil
}

// Permuted returns a copy of the DAG with collective ranks mapped onto
// physical hosts by a seeded random permutation. The DAG structure
// (dependencies, sizes, phases) is untouched; only endpoint labels
// change. This is the placement-randomization knob: repetitions across
// seeds measure how sensitive a topology's makespan is to where the job's
// ranks land. The permutation is a deterministic function of the seed.
func (d *DAG) Permuted(seed uint64) *DAG {
	rng := rand.New(rand.NewPCG(seed, 0xc011ec7))
	perm := make([]int32, d.Hosts)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := d.Hosts - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := *d
	out.PhaseNames = append([]string(nil), d.PhaseNames...)
	out.Messages = make([]Message, len(d.Messages))
	for i, m := range d.Messages {
		m.Deps = append([]int32(nil), m.Deps...)
		m.Src = perm[m.Src]
		m.Dst = perm[m.Dst]
		out.Messages[i] = m
	}
	return &out
}

// TotalFlits sums the payload of every message.
func (d *DAG) TotalFlits() int64 {
	var t int64
	for _, m := range d.Messages {
		t += int64(m.Flits)
	}
	return t
}
