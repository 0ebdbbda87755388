package collectives

import "dsnet/internal/netsim"

// ToReplay converts a collective DAG into the closed-loop workload the
// simulators execute (netsim.Spec.Replay). The conversion is 1:1 — message
// IDs are positional in both representations, so dependency indices
// carry over unchanged.
func ToReplay(d *DAG) *netsim.Replay {
	r := &netsim.Replay{
		Name:     d.Name(),
		Phases:   append([]string(nil), d.PhaseNames...),
		Messages: make([]netsim.ReplayMessage, len(d.Messages)),
	}
	for i, m := range d.Messages {
		r.Messages[i] = netsim.ReplayMessage{
			SrcHost: m.Src,
			DstHost: m.Dst,
			Flits:   m.Flits,
			Deps:    append([]int32(nil), m.Deps...),
			Phase:   m.Phase,
		}
	}
	return r
}
