package statemodel

import "fmt"

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
	u := &Model{
		varIdx:  map[string]int{},
		stateID: map[string]int{},
	}
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

	// Add transitions (lines 2-12).
	appOffset := 0
	seen := map[edgeKey]bool{}
	for _, in := range models {
		// proj[i] is the union index of input variable i.
		proj := make([]int, len(in.Vars))
		for i, v := range in.Vars {
			proj[i] = u.varIdx[v.Key]
		}
		for _, t := range in.Transitions {
			from := in.States[t.From]
			to := in.States[t.To]
			// V' = union states containing v (line 5): those agreeing
			// with `from` on the input model's variables.
			for s := range u.States {
				agree := true
				for i, uj := range proj {
					if u.States[s].Idx[uj] != from.Idx[i] {
						agree = false
						break
					}
				}
				if !agree {
					continue
				}
				idx := make([]int, len(u.Vars))
				copy(idx, u.States[s].Idx)
				for i, uj := range proj {
					idx[uj] = to.Idx[i]
				}
				toID := u.internState(idx)
				nt := Transition{
					From: s, To: toID, Event: t.Event, Guard: t.Guard,
					App: appOffset + t.App, Handler: t.Handler, ActionsSig: t.ActionsSig,
				}
				k := edgeKey{from: s, to: toID, label: nt.Label(), app: nt.App}
				if seen[k] {
					continue
				}
				seen[k] = true
				u.Transitions = append(u.Transitions, nt)
			}
		}
		appOffset += len(in.Apps)
	}
	u.detectNondeterminism()
	return u, nil
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

// InteractionVars returns the keys of variables shared by at least two
// different apps of the model — the devices/events through which apps
// interact (§4.4). The second return groups, per shared variable, the
// app indices touching it.
func (m *Model) InteractionVars() ([]string, map[string][]int) {
	touch := map[string]map[int]bool{}
	mark := func(key string, app int) {
		if _, ok := m.varIdx[key]; !ok {
			return
		}
		if touch[key] == nil {
			touch[key] = map[int]bool{}
		}
		touch[key][app] = true
	}
	for ai, am := range m.Apps {
		for _, p := range am.App.Devices() {
			if p.Cap == nil {
				continue
			}
			for _, a := range p.Cap.Attributes {
				mark(varKeyFor(p.Cap.Name, a.Name), ai)
			}
		}
		for _, r := range am.Results {
			if k := m.triggerKey(am.App, r.Entry.Sub); k != "" {
				mark(k, ai)
			}
			for _, path := range r.Paths {
				for _, act := range path.Actions {
					mark(varKeyFor(act.Cap, act.Attr), ai)
				}
			}
		}
	}
	var keys []string
	apps := map[string][]int{}
	for _, k := range sortedKeys(touch) {
		if len(touch[k]) < 2 {
			continue
		}
		keys = append(keys, k)
		var list []int
		for ai := range touch[k] {
			list = append(list, ai)
		}
		sortInts(list)
		apps[k] = list
	}
	return keys, apps
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}
