// Package taint implements Soteria's sensitive-data-flow property
// family (T.1–T.6), the SainT-style analysis ("Sensitive Information
// Tracking in Commodity IoT", same authors): sensitive sources —
// device state, the location mode, install-time user inputs — must not
// flow into transmission sinks — network calls and messages.
//
// The analysis is a source/sink/sanitizer lattice over the IR,
// evaluated on the symbolic-execution results already computed for the
// state model. internal/symexec is the one value-flow engine: it
// propagates taint marks through expressions, helper calls and
// returns, records every transmission call with the path condition
// that reaches it, and records the marks of every value written to a
// persistent state field. This package resolves the marks against the
// sink policy (payload vs recipient argument positions), chases a
// state-field mark through the marks written to that field by any
// entry point or lifecycle method (transitively, cycle-guarded), and
// reports each leak with a feasible witness path — source → sink with
// the satisfiable path condition — rather than a syntactic
// reachability claim. Sanitizer calls (redact/anonymize/obfuscate)
// clear marks during symbolic execution, so a sanitized flow is not
// reported.
package taint

import (
	"fmt"
	"sort"
	"strings"

	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/pathcond"
	"github.com/soteria-analysis/soteria/internal/properties"
	"github.com/soteria-analysis/soteria/internal/statemodel"
	"github.com/soteria-analysis/soteria/internal/symexec"
)

// Class is a sensitive-source class.
type Class string

// Source classes.
const (
	DeviceState  Class = "device-state"
	LocationMode Class = "location-mode"
	UserInput    Class = "user-input"
)

// Channel is a transmission-sink channel.
type Channel string

// Sink channels.
const (
	Network   Channel = "network"
	Messaging Channel = "messaging"
)

// Spec is one property of the taint family: a (source class, sink
// channel) pair with a catalogue ID.
type Spec struct {
	ID          string
	Source      Class
	Channel     Channel
	Description string
}

// catalogue is the T family in ID order.
var catalogue = []Spec{
	{ID: "T.1", Source: DeviceState, Channel: Network,
		Description: "device state must not leave the hub via network calls"},
	{ID: "T.2", Source: DeviceState, Channel: Messaging,
		Description: "device state must not leave the hub via messages (SMS/push/notification)"},
	{ID: "T.3", Source: LocationMode, Channel: Network,
		Description: "the location mode must not leave the hub via network calls"},
	{ID: "T.4", Source: LocationMode, Channel: Messaging,
		Description: "the location mode must not leave the hub via messages"},
	{ID: "T.5", Source: UserInput, Channel: Network,
		Description: "user inputs must not leave the hub via network calls"},
	{ID: "T.6", Source: UserInput, Channel: Messaging,
		Description: "user inputs must not leave the hub via messages"},
}

// Catalogue returns the taint property family in ID order.
func Catalogue() []Spec {
	out := make([]Spec, len(catalogue))
	copy(out, catalogue)
	return out
}

// IDs returns the family's property IDs in order.
func IDs() []string {
	out := make([]string, len(catalogue))
	for i, s := range catalogue {
		out[i] = s.ID
	}
	return out
}

// specFor maps a (class, channel) pair to its spec.
func specFor(c Class, ch Channel) (Spec, bool) {
	for _, s := range catalogue {
		if s.Source == c && s.Channel == ch {
			return s, true
		}
	}
	return Spec{}, false
}

// MatchIDs builds an ID filter from a PropertyIDs-style list: an empty
// list admits the whole family; "T.*" admits the whole family; exact
// T.n entries admit those properties. Non-taint IDs (P.7, S.1) are
// ignored — they filter the other catalogues.
func MatchIDs(ids []string) func(string) bool {
	if len(ids) == 0 {
		return func(string) bool { return true }
	}
	all := false
	set := map[string]bool{}
	for _, id := range ids {
		if id == "T.*" {
			all = true
		}
		if strings.HasPrefix(id, "T.") {
			set[id] = true
		}
	}
	return func(id string) bool { return all || set[id] }
}

// sinkSpec is the per-sink policy.
type sinkSpec struct {
	Channel Channel
	// Payload lists the argument positions carrying transmitted data;
	// nil means every argument. Recipient positions (the phone number
	// of sendSms, the contact list of sendNotificationToContacts) are
	// excluded: they are user-designated destinations, not leaked data.
	Payload []int
}

func (s sinkSpec) isPayload(i int) bool {
	if s.Payload == nil {
		return true
	}
	for _, p := range s.Payload {
		if p == i {
			return true
		}
	}
	return false
}

// sinkSpecs is the SainT sink set over the SmartThings API.
var sinkSpecs = map[string]sinkSpec{
	"sendSms":                    {Channel: Messaging, Payload: []int{1}},
	"sendSmsMessage":             {Channel: Messaging, Payload: []int{1}},
	"sendPush":                   {Channel: Messaging, Payload: []int{0}},
	"sendPushMessage":            {Channel: Messaging, Payload: []int{0}},
	"sendNotification":           {Channel: Messaging, Payload: []int{0}},
	"sendNotificationToContacts": {Channel: Messaging, Payload: []int{0}},
	"sendNotificationEvent":      {Channel: Messaging, Payload: []int{0}},
	"httpGet":                    {Channel: Network},
	"httpPost":                   {Channel: Network},
	"httpPostJson":               {Channel: Network},
	"httpPut":                    {Channel: Network},
	"httpPutJson":                {Channel: Network},
	"httpDelete":                 {Channel: Network},
	"httpHead":                   {Channel: Network},
}

// Flow is one reported sensitive-data flow: a source reaching a sink
// on a feasible path. All fields are plain data so the flow round-trips
// through the schema-versioned report record byte-identically.
type Flow struct {
	ID  string // catalogue ID, "T.1"–"T.6"
	App string
	// Handler and Event identify the entry point the flow executes in.
	Handler string
	Event   string
	// Source is the canonical sensitive variable ("evt.displayName",
	// "the_lock.lock", "location.mode", an input handle).
	Source      string
	SourceClass string
	// Via names the persistent state field the source flowed through
	// ("state.lastSeen"); empty for direct flows.
	Via string
	// Sink and Channel identify the transmission.
	Sink    string
	Channel string
	Line    int
	// Condition is the canonical satisfiable path condition reaching
	// the sink ("true" when unconditional).
	Condition string
	// Witness is the rendered source→sink path, one step per line.
	Witness []string
}

// Detail renders the one-line instance description used in violation
// reports.
func (f Flow) Detail() string {
	src := f.Source
	if f.Via != "" {
		src += " (via " + f.Via + ")"
	}
	d := fmt.Sprintf("%s: %s flows to %s (line %d)", f.App, src, f.Sink, f.Line)
	if f.Condition != "true" {
		d += " when " + f.Condition
	}
	return d
}

// origin is a resolved sensitive source.
type origin struct {
	Class Class
	Var   string
	Via   string // state field chain entry, "" for direct
}

// FromModel evaluates the taint family over an already-built state
// model (the per-app symbolic-execution results it retains), filtered
// by the PropertyIDs-style list. Flows are sorted and deduplicated;
// only flows whose path condition is satisfiable are reported.
func FromModel(m *statemodel.Model, ids []string) []Flow {
	match := MatchIDs(ids)
	var flows []Flow
	for _, am := range m.Apps {
		flows = append(flows, appFlows(am.App, am.Results, match)...)
	}
	SortFlows(flows)
	return dedupeFlows(flows)
}

// appFlows evaluates one app's symbolic-execution results against the
// sink policy.
func appFlows(app *ir.App, results []*symexec.Result, match func(string) bool) []Flow {
	var rv *resolver // built lazily: only state-field marks need it
	var flows []Flow
	for _, r := range results {
		for _, s := range r.Sinks {
			spec, isSink := sinkSpecs[s.Name]
			if !isSink {
				continue
			}
			if !pathcond.Feasible(s.Guard) {
				continue
			}
			for i, arg := range s.Args {
				if !spec.isPayload(i) {
					continue
				}
				for _, l := range arg.Taint {
					var origins []origin
					if l.Kind == pathcond.StateVariable {
						if rv == nil {
							rv = newResolver(app, results)
						}
						field := strings.TrimPrefix(l.Var, "state.")
						for _, o := range rv.resolve(field, map[string]bool{}) {
							o.Via = l.Var
							origins = append(origins, o)
						}
					} else if o, ok := sourceOrigin(l); ok {
						origins = []origin{o}
					}
					for _, o := range origins {
						p, ok := specFor(o.Class, spec.Channel)
						if !ok || !match(p.ID) {
							continue
						}
						flows = append(flows, buildFlow(p, app, r, s, o))
					}
				}
			}
		}
	}
	return flows
}

// buildFlow assembles the flow record with its witness path.
func buildFlow(p Spec, app *ir.App, r *symexec.Result, s symexec.SinkCall, o origin) Flow {
	cond := "true"
	if !s.Guard.IsTrue() {
		cond = s.Guard.Canonical()
	}
	f := Flow{
		ID:          p.ID,
		App:         app.Name,
		Handler:     r.Entry.Handler.Name,
		Event:       r.Entry.Sub.EventLabel(),
		Source:      o.Var,
		SourceClass: string(o.Class),
		Via:         o.Via,
		Sink:        s.Name,
		Channel:     string(p.Channel),
		Line:        s.Pos.Line,
		Condition:   cond,
	}
	read := fmt.Sprintf("read %s [%s]", f.Source, f.SourceClass)
	if f.Via != "" {
		read = fmt.Sprintf("read %s [%s] via %s", f.Source, f.SourceClass, f.Via)
	}
	var args []string
	for _, a := range s.Args {
		args = append(args, a.Text)
	}
	f.Witness = []string{
		fmt.Sprintf("event %s triggers %s()", f.Event, f.Handler),
		read,
		fmt.Sprintf("%s(%s) at line %d transmits it over the %s channel",
			f.Sink, strings.Join(args, ", "), f.Line, f.Channel),
		fmt.Sprintf("path condition: %s (satisfiable)", f.Condition),
	}
	return f
}

// SortFlows orders flows deterministically: catalogue ID, then app,
// source line, source, via, sink, and condition — so reports are
// byte-identical however the analysis was scheduled.
func SortFlows(flows []Flow) {
	sort.SliceStable(flows, func(i, j int) bool {
		a, b := flows[i], flows[j]
		if ra, rb := properties.IDRank(a.ID), properties.IDRank(b.ID); ra != rb {
			return ra < rb
		}
		if a.App != b.App {
			return a.App < b.App
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		if a.Via != b.Via {
			return a.Via < b.Via
		}
		if a.Sink != b.Sink {
			return a.Sink < b.Sink
		}
		return a.Condition < b.Condition
	})
}

// dedupeFlows drops adjacent duplicates of a sorted flow list (the
// same flow can surface from several entry points or labels).
func dedupeFlows(flows []Flow) []Flow {
	var out []Flow
	for _, f := range flows {
		if len(out) > 0 && flowKey(out[len(out)-1]) == flowKey(f) {
			continue
		}
		out = append(out, f)
	}
	return out
}

func flowKey(f Flow) string {
	return strings.Join([]string{f.ID, f.App, f.Handler, f.Event, f.Source,
		f.Via, f.Sink, fmt.Sprint(f.Line), f.Condition}, "\x00")
}

// Violations renders flows as catalogue violations (Kind Taint), one
// per flow, with the witness as the counterexample.
func Violations(flows []Flow) []properties.Violation {
	var out []properties.Violation
	for _, f := range flows {
		desc := ""
		for _, s := range catalogue {
			if s.ID == f.ID {
				desc = s.Description
				break
			}
		}
		out = append(out, properties.Violation{
			ID:             f.ID,
			Kind:           properties.Taint,
			Description:    desc,
			Detail:         f.Detail(),
			Apps:           []string{f.App},
			Counterexample: strings.Join(f.Witness, "\n"),
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Persistent-state resolution

// resolver chases persistent state fields back to sensitive sources:
// a mark like "state.lastSeen" at a sink resolves to the marks of every
// value symbolic execution saw written to the field, on a feasible
// path of any entry point or lifecycle method of the app.
type resolver struct {
	writes map[string][]symexec.Label
	memo   map[string][]origin
}

// newResolver unions the state writes of the app's entry-point results
// with those of its lifecycle methods (installed, updated, ...), which
// are not entry points but run before any handler does.
func newResolver(app *ir.App, results []*symexec.Result) *resolver {
	r := &resolver{writes: map[string][]symexec.Label{}, memo: map[string][]origin{}}
	add := func(res *symexec.Result) {
		for f, ls := range res.StateWrites {
			r.writes[f] = append(r.writes[f], ls...)
		}
	}
	for _, res := range results {
		add(res)
	}
	for _, m := range app.File.Methods {
		if ir.LifecycleMethods[m.Name] {
			add(symexec.Execute(app, &ir.EntryPoint{Handler: m}))
		}
	}
	return r
}

// resolve returns the sensitive origins of state field `field`.
// visiting guards field→field assignment cycles.
func (r *resolver) resolve(field string, visiting map[string]bool) []origin {
	if got, ok := r.memo[field]; ok {
		return got
	}
	if visiting[field] {
		return nil
	}
	visiting[field] = true
	defer delete(visiting, field)
	var out []origin
	for _, l := range r.writes[field] {
		if l.Kind == pathcond.StateVariable {
			out = append(out, r.resolve(strings.TrimPrefix(l.Var, "state."), visiting)...)
		} else if o, ok := sourceOrigin(l); ok {
			out = append(out, o)
		}
	}
	out = dedupeOrigins(out)
	if len(visiting) == 1 {
		r.memo[field] = out
	}
	return out
}

// sourceOrigin classifies a taint mark that names a sensitive source
// itself: a user input, the location mode, or other device state.
// State-field marks are not sources; the resolver chases them.
func sourceOrigin(l symexec.Label) (origin, bool) {
	switch l.Kind {
	case pathcond.UserDefined:
		return origin{Class: UserInput, Var: l.Var}, true
	case pathcond.DeviceState:
		if l.Var == "location.mode" {
			return origin{Class: LocationMode, Var: l.Var}, true
		}
		return origin{Class: DeviceState, Var: l.Var}, true
	}
	return origin{}, false
}

func dedupeOrigins(os []origin) []origin {
	sort.Slice(os, func(i, j int) bool {
		if os[i].Class != os[j].Class {
			return os[i].Class < os[j].Class
		}
		return os[i].Var < os[j].Var
	})
	var out []origin
	for _, o := range os {
		if len(out) > 0 && out[len(out)-1] == o {
			continue
		}
		out = append(out, o)
	}
	return out
}
