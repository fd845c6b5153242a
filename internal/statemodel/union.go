package statemodel

import (
	"fmt"
	"slices"
)

// Union implements Algorithm 2: the union of several apps' state
// models. The union model's states are the Cartesian product over the
// merged attribute set (attributes of duplicate devices — same
// capability and attribute — are merged), and for every transition
// v --l--> u of input model i, an edge v' --l--> u' is added between
// every pair of union states v', u' that contain v and u respectively,
// labeled with i.
//
// The result is equivalent to Build(apps...) but is computed
// structurally from the already-extracted models, which is what §6.3
// benchmarks (4±2.1 s for 30 interacting apps in the paper's setup).
func Union(models ...*Model) (*Model, error) {
	u := &Model{varIdx: map[string]int{}}
	// Merge variables by key (line 1: states are tuples of attribute
	// values with duplicate devices' attributes removed).
	for _, in := range models {
		u.Apps = append(u.Apps, in.Apps...)
		for _, v := range in.Vars {
			if j, ok := u.varIdx[v.Key]; ok {
				if len(u.Vars[j].Values) != len(v.Values) || !sameValues(u.Vars[j].Values, v.Values) {
					return nil, fmt.Errorf("union: variable %s has mismatched domains (%v vs %v)",
						v.Key, u.Vars[j].Values, v.Values)
				}
				u.Vars[j].Handles = mergeStrings(u.Vars[j].Handles, v.Handles)
				continue
			}
			nv := *v
			nv.Handles = append([]string{}, v.Handles...)
			u.varIdx[nv.Key] = len(u.Vars)
			u.Vars = append(u.Vars, &nv)
		}
		if in.StatesBeforeReduction > 0 {
			if u.StatesBeforeReduction == 0 {
				u.StatesBeforeReduction = 1
			}
			u.StatesBeforeReduction *= in.StatesBeforeReduction
		}
	}
	if err := u.enumerateStates(); err != nil {
		return nil, err
	}

	// Add transitions (lines 2-12). Union states are the full product
	// in mixed-radix order, so the states containing an input state and
	// their successors are computed from packed IDs.
	appOffset := 0
	var edges edgeSet
	for _, in := range models {
		// proj[i] is the union index of input variable i.
		proj := make([]int, len(in.Vars))
		for i, v := range in.Vars {
			proj[i] = u.varIdx[v.Key]
		}
		free := u.freeOffsets(proj)
		for _, t := range in.Transitions {
			from := in.States[t.From].Idx
			to := in.States[t.To].Idx
			// base is the smallest union state containing v; delta moves
			// every such state to the one containing u.
			base, delta := 0, 0
			for i, uj := range proj {
				base += from[i] * u.stride[uj]
				delta += (to[i] - from[i]) * u.stride[uj]
			}
			label, labelID := u.names.label(t.Label())
			event := t.EventName()
			app := appOffset + t.App
			// V' = union states containing v (line 5), ascending.
			noted := false
			for _, off := range free {
				s := base + off
				nt := Transition{
					From: s, To: s + delta, Event: t.Event, Guard: t.Guard, App: app,
					label: label, event: event,
				}
				if edges.add(nt, labelID) && !noted {
					noted = true
					u.noteEvent(event)
				}
			}
		}
		appOffset += len(in.Apps)
	}
	u.Transitions = edges.ts
	u.detectNondeterminism()
	return u, nil
}

// freeOffsets returns, in ascending order, the packed values of every
// assignment to the union variables not in proj.
func (u *Model) freeOffsets(proj []int) []int {
	offs := []int{0}
	for vi, v := range u.Vars {
		if slices.Contains(proj, vi) {
			continue
		}
		next := make([]int, 0, len(offs)*len(v.Values))
		for _, o := range offs {
			for d := range v.Values {
				next = append(next, o+d*u.stride[vi])
			}
		}
		offs = next
	}
	return offs
}

func sameValues(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mergeStrings(a, b []string) []string {
	set := map[string]bool{}
	for _, s := range a {
		set[s] = true
	}
	out := append([]string{}, a...)
	for _, s := range b {
		if !set[s] {
			out = append(out, s)
		}
	}
	return out
}
