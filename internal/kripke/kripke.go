// Package kripke translates Soteria state models into Kripke
// structures (paper §5: "We translate the state model of an IoT app
// into a Kripke structure"), the input format of the model-checking
// engines (explicit, BDD-symbolic, and SAT/BMC).
//
// Atomic propositions are "variable=value" facts plus per-state event
// markers "ev:<event>" set on states entered via that event, which
// lets properties refer to triggers. The transition relation is made
// total by adding self-loops to deadlocked states (CTL semantics over
// total relations).
package kripke

import (
	"fmt"
	"sort"
	"strings"

	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// Structure is an explicit Kripke structure.
type Structure struct {
	N      int
	Init   []int
	Succs  [][]int
	Preds  [][]int
	Labels []map[string]bool
	Names  []string // human-readable state names
	// EdgeInfo retains, per (from, to) pair, the transition labels —
	// used for counterexample rendering.
	EdgeInfo map[[2]int][]string
}

// HasProp reports whether proposition p holds in state s.
func (k *Structure) HasProp(s int, p string) bool { return k.Labels[s][p] }

// AddEdge inserts an edge (deduplicated).
func (k *Structure) AddEdge(from, to int, label string) {
	for _, t := range k.Succs[from] {
		if t == to {
			if label != "" {
				k.EdgeInfo[[2]int{from, to}] = appendUnique(k.EdgeInfo[[2]int{from, to}], label)
			}
			return
		}
	}
	k.Succs[from] = append(k.Succs[from], to)
	k.Preds[to] = append(k.Preds[to], from)
	if label != "" {
		k.EdgeInfo[[2]int{from, to}] = appendUnique(k.EdgeInfo[[2]int{from, to}], label)
	}
}

func appendUnique(ss []string, s string) []string {
	for _, t := range ss {
		if t == s {
			return ss
		}
	}
	return append(ss, s)
}

// New creates an empty structure with n states, all initial.
func New(n int) *Structure {
	k := &Structure{
		N:        n,
		Succs:    make([][]int, n),
		Preds:    make([][]int, n),
		Labels:   make([]map[string]bool, n),
		Names:    make([]string, n),
		EdgeInfo: map[[2]int][]string{},
	}
	for i := 0; i < n; i++ {
		k.Labels[i] = map[string]bool{}
		k.Names[i] = fmt.Sprintf("s%d", i)
		k.Init = append(k.Init, i)
	}
	return k
}

// FromModel builds the Kripke structure of a state model. Every model
// state is initial (the environment may start anywhere); transitions
// with residual guards are included (they are possible behaviours —
// the sound over-approximation the paper accepts).
func FromModel(m *statemodel.Model) *Structure {
	k := New(len(m.States))
	// Propositions are rendered once per (variable, value) and per
	// event, not per state or transition.
	valueProps := make([][]string, len(m.Vars))
	for vi, v := range m.Vars {
		valueProps[vi] = make([]string, len(v.Values))
		for i, val := range v.Values {
			valueProps[vi][i] = v.Key + "=" + val
		}
	}
	evProps := make(map[string]string, len(m.Events()))
	for _, e := range m.Events() {
		evProps[e] = "ev:" + e
	}
	for s := range m.States {
		k.Names[s] = m.StateLabel(s)
		for vi, d := range m.States[s].Idx {
			k.Labels[s][valueProps[vi][d]] = true
		}
	}
	for _, t := range m.Transitions {
		k.AddEdge(t.From, t.To, t.Label())
		// Event marker on the target state.
		k.Labels[t.To][evProps[t.EventName()]] = true
	}
	// Total transition relation: deadlocked states self-loop.
	for s := 0; s < k.N; s++ {
		if len(k.Succs[s]) == 0 {
			k.AddEdge(s, s, "stutter")
		}
	}
	return k
}

// Props returns the sorted set of all propositions used in the
// structure.
func (k *Structure) Props() []string {
	set := map[string]bool{}
	for _, l := range k.Labels {
		for p := range l {
			set[p] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// RenderPath formats a state path with edge labels for counterexample
// output.
func (k *Structure) RenderPath(path []int) string {
	var sb strings.Builder
	for i, s := range path {
		if i > 0 {
			labels := k.EdgeInfo[[2]int{path[i-1], s}]
			sb.WriteString("\n  --[")
			sb.WriteString(strings.Join(labels, " | "))
			sb.WriteString("]--> ")
		}
		sb.WriteString(k.Names[s])
	}
	return sb.String()
}
