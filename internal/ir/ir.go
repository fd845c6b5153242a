// Package ir builds Soteria's intermediate representation from a
// parsed SmartThings app (paper §4.1, Fig. 4/5).
//
// The IR captures the app lifecycle as three blocks:
//
//   - Permissions: the devices and user inputs granted to the app
//     (from the preferences/input declarations),
//   - Events/Actions: the event subscriptions binding device or
//     abstract events to handler methods,
//   - Call graphs: one per entry point, rooted at the handler (a
//     "dummy main" per the paper), with call-by-reflection
//     over-approximated to all app methods.
//
// Everything not relevant to property analysis (definition metadata,
// logging, notification plumbing) is identified here so later stages
// can abstract it away.
package ir

import (
	"fmt"
	"sort"
	"strings"

	"github.com/soteria-analysis/soteria/internal/capability"
	"github.com/soteria-analysis/soteria/internal/groovy"
)

// PermKind distinguishes device grants from user inputs.
type PermKind int

const (
	// Device permissions grant access to a physical device through a
	// capability.
	Device PermKind = iota
	// UserInput permissions collect a value from the user at install
	// time (numbers, phone, time, enum, ...).
	UserInput
)

func (k PermKind) String() string {
	if k == Device {
		return "device"
	}
	return "user_defined"
}

// Permission is one `input` declaration.
type Permission struct {
	Handle   string // identifier the app binds the device/input to
	RawType  string // the declared type string, e.g. "capability.switch"
	Kind     PermKind
	Cap      *capability.Capability // resolved capability (Kind==Device)
	Title    string
	Required bool
	Multiple bool
	Pos      groovy.Pos
}

// EventKind classifies the source of an entry point's triggering event.
type EventKind int

const (
	// DeviceEvent is a device attribute change (e.g. "water.wet").
	DeviceEvent EventKind = iota
	// ModeEvent is a location mode change.
	ModeEvent
	// AppTouchEvent is the user tapping the app icon.
	AppTouchEvent
	// TimerEvent is a scheduled callback (runIn/schedule/runEvery*).
	TimerEvent
)

func (k EventKind) String() string {
	switch k {
	case DeviceEvent:
		return "device"
	case ModeEvent:
		return "mode"
	case AppTouchEvent:
		return "app-touch"
	case TimerEvent:
		return "timer"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Subscription is one entry in the events/actions block.
type Subscription struct {
	Handle  string // device handle; "location"/"app" for abstract events
	Attr    string // subscribed attribute ("smoke", "mode", "water", ...)
	Value   string // specific value for "attr.value" subscriptions; "" = all
	Handler string // handler method name
	Kind    EventKind
	Pos     groovy.Pos
}

// EventLabel renders the subscription's event in the paper's notation,
// e.g. "smoke_detector.smoke", "water_sensor.water.wet", "mode",
// "app touch", "timer".
func (s Subscription) EventLabel() string {
	switch s.Kind {
	case ModeEvent:
		if s.Value != "" {
			return "mode." + s.Value
		}
		return "mode"
	case AppTouchEvent:
		return "app touch"
	case TimerEvent:
		if s.Value != "" {
			return "timer." + s.Value
		}
		return "timer"
	}
	l := s.Handle + "." + s.Attr
	if s.Value != "" {
		l += "." + s.Value
	}
	return l
}

// CallGraph is the per-entry-point call graph (paper §4.1). Nodes are
// method names; the root is the entry point's handler.
type CallGraph struct {
	Root  string
	Edges map[string][]string // caller -> callees, deterministic order
	// Reflective records call-by-reflection sites: caller methods that
	// contain a `"$name"()` call whose target set was over-approximated
	// to all app methods.
	Reflective []string
}

// Reachable returns the methods reachable from the root (including the
// root), in deterministic (BFS, then name) order.
func (g *CallGraph) Reachable() []string {
	seen := map[string]bool{g.Root: true}
	order := []string{g.Root}
	queue := []string{g.Root}
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		for _, c := range g.Edges[m] {
			if !seen[c] {
				seen[c] = true
				order = append(order, c)
				queue = append(queue, c)
			}
		}
	}
	return order
}

// EntryPoint is one dummy-main: an event subscription plus the handler
// method and its call graph.
type EntryPoint struct {
	Sub       Subscription
	Handler   *groovy.MethodDecl
	CallGraph *CallGraph
}

// App is the complete IR of a single SmartThings app.
type App struct {
	Name          string
	File          *groovy.File
	Definition    map[string]string // definition(...) metadata
	Permissions   []Permission
	Subscriptions []Subscription
	EntryPoints   []*EntryPoint
	// StateFields are the fields of the persistent state/atomicState
	// objects referenced anywhere in the app (§4.2.3, field-sensitive
	// analysis of state variables).
	StateFields []string
	// UsesReflection is set when any method contains a call by
	// reflection ("$name"()).
	UsesReflection bool
	// Warnings collects non-fatal extraction diagnostics (unknown
	// capabilities, unresolved handlers, ...).
	Warnings []string
}

// PermissionByHandle returns the permission bound to the given handle.
func (a *App) PermissionByHandle(h string) (*Permission, bool) {
	for i := range a.Permissions {
		if a.Permissions[i].Handle == h {
			return &a.Permissions[i], true
		}
	}
	return nil, false
}

// Devices returns the device permissions only.
func (a *App) Devices() []Permission {
	var out []Permission
	for _, p := range a.Permissions {
		if p.Kind == Device {
			out = append(out, p)
		}
	}
	return out
}

// UserInputs returns the user-input permissions only.
func (a *App) UserInputs() []Permission {
	var out []Permission
	for _, p := range a.Permissions {
		if p.Kind == UserInput {
			out = append(out, p)
		}
	}
	return out
}

// Capabilities returns the set of capability names the app's devices
// grant, sorted.
func (a *App) Capabilities() []string {
	set := map[string]bool{}
	for _, p := range a.Devices() {
		if p.Cap != nil {
			set[p.Cap.Name] = true
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// SubscribesToMode reports whether the app subscribes to location mode
// changes (directly or by changing location mode itself).
func (a *App) SubscribesToMode() bool {
	for _, s := range a.Subscriptions {
		if s.Kind == ModeEvent {
			return true
		}
	}
	return false
}

// LifecycleMethods are SmartThings-managed methods that are not event
// handlers themselves: the platform calls them at install, update and
// removal time.
var LifecycleMethods = map[string]bool{
	"installed": true, "updated": true, "initialize": true,
	"uninstalled": true,
}

// platformCalls are SmartThings API calls that are not app-method
// calls; they are excluded from call graphs.
var platformCalls = map[string]bool{
	"subscribe": true, "unsubscribe": true, "schedule": true,
	"unschedule": true, "runIn": true, "runOnce": true,
	"sendPush": true, "sendSms": true, "sendNotificationToContacts": true,
	"sendNotificationEvent": true, "sendEvent": true, "httpGet": true,
	"httpPost": true, "now": true, "definition": true,
	"preferences": true, "section": true, "input": true, "log": true,
	"setLocationMode": true, "sendLocationEvent": true, "timeOfDayIsBetween": true,
	"getSunriseAndSunset": true, "runEvery1Minute": true,
	"runEvery5Minutes": true, "runEvery15Minutes": true,
	"runEvery30Minutes": true, "runEvery1Hour": true, "runEvery3Hours": true,
	"paragraph": true, "href": true, "page": true, "dynamicPage": true,
	"sendPushMessage": true, "canSchedule": true, "parseJson": true,
}

// Build extracts the IR from a parsed app.
func Build(f *groovy.File) *App {
	a := &App{
		Name:       f.Name,
		File:       f,
		Definition: map[string]string{},
	}
	b := &builder{app: a}
	b.collectDefinition()
	b.collectPermissions()
	b.collectStateFields()
	b.collectSubscriptions()
	b.buildEntryPoints()
	return a
}

// BuildSource parses src and builds its IR, joining parse errors into
// err while still returning a best-effort IR.
func BuildSource(name, src string) (*App, error) {
	f, err := groovy.Parse(name, src)
	app := Build(f)
	return app, err
}

type builder struct {
	app *App
}

func (b *builder) warnf(format string, args ...any) {
	b.app.Warnings = append(b.app.Warnings, fmt.Sprintf(format, args...))
}

// collectDefinition records definition(...) metadata (name, category,
// description). The metadata is abstracted away from analysis but is
// used for reporting (Table 2 groups apps by functionality category).
func (b *builder) collectDefinition() {
	for _, s := range b.app.File.Stmts {
		es, ok := s.(*groovy.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*groovy.CallExpr)
		if !ok || call.Name != "definition" {
			continue
		}
		for _, na := range call.NamedArgs {
			if v, ok := groovy.StringValue(na.Value); ok {
				b.app.Definition[na.Key] = v
			}
		}
		if n := b.app.Definition["name"]; n != "" && b.app.Name == "" {
			b.app.Name = n
		}
	}
}

// collectPermissions walks every top-level statement (preferences
// blocks, pages) for input declarations.
func (b *builder) collectPermissions() {
	seen := map[string]bool{}
	for _, s := range b.app.File.Stmts {
		groovy.Walk(s, func(n groovy.Node) bool {
			call, ok := n.(*groovy.CallExpr)
			if !ok || call.Name != "input" {
				return true
			}
			p, ok := b.parseInput(call)
			if ok && !seen[p.Handle] {
				seen[p.Handle] = true
				b.app.Permissions = append(b.app.Permissions, p)
			}
			return true
		})
	}
}

func (b *builder) parseInput(call *groovy.CallExpr) (Permission, bool) {
	p := Permission{Pos: call.Pos}
	// Positional form: input "handle", "type", named... — or fully
	// named: input(name: "x", type: "number").
	if len(call.Args) >= 1 {
		if h, ok := groovy.StringValue(call.Args[0]); ok {
			p.Handle = h
		}
	}
	if len(call.Args) >= 2 {
		if t, ok := groovy.StringValue(call.Args[1]); ok {
			p.RawType = t
		}
	}
	for _, na := range call.NamedArgs {
		switch na.Key {
		case "name":
			if v, ok := groovy.StringValue(na.Value); ok && p.Handle == "" {
				p.Handle = v
			}
		case "type":
			if v, ok := groovy.StringValue(na.Value); ok && p.RawType == "" {
				p.RawType = v
			}
		case "title":
			if v, ok := groovy.StringValue(na.Value); ok {
				p.Title = v
			}
		case "required":
			if bv, ok := na.Value.(*groovy.BoolLit); ok {
				p.Required = bv.Value
			}
		case "multiple":
			if bv, ok := na.Value.(*groovy.BoolLit); ok {
				p.Multiple = bv.Value
			}
		}
	}
	if p.Handle == "" || p.RawType == "" {
		if p.Handle == "" {
			b.warnf("%s: input with no handle ignored", call.Pos)
			return p, false
		}
		// `input "recipients", "contact"` style always has a type; a
		// missing type means a page-level decoration — ignore.
		b.warnf("%s: input %q with no type ignored", call.Pos, p.Handle)
		return p, false
	}
	if cp, ok := capability.ForInputType(p.RawType); ok {
		p.Kind = Device
		p.Cap = cp
		return p, true
	}
	if capability.IsUserInputType(p.RawType) {
		p.Kind = UserInput
		return p, true
	}
	if strings.HasPrefix(p.RawType, "capability.") {
		b.warnf("%s: unknown capability %q for input %q", call.Pos, p.RawType, p.Handle)
		return p, false
	}
	// Device-type inputs ("device.switch") and anything else are
	// treated as user inputs so the handle is at least known.
	p.Kind = UserInput
	return p, true
}

// collectStateFields finds all state.X / atomicState.X field accesses.
func (b *builder) collectStateFields() {
	set := map[string]bool{}
	groovy.WalkFile(b.app.File, func(n groovy.Node) bool {
		pe, ok := n.(*groovy.PropExpr)
		if !ok {
			return true
		}
		if id, ok := pe.Recv.(*groovy.Ident); ok && (id.Name == "state" || id.Name == "atomicState") {
			set[pe.Name] = true
		}
		return true
	})
	for f := range set {
		b.app.StateFields = append(b.app.StateFields, f)
	}
	sort.Strings(b.app.StateFields)
}

// collectSubscriptions finds subscribe(...) and scheduling calls in
// every method (apps typically subscribe inside initialize()).
func (b *builder) collectSubscriptions() {
	for _, m := range b.app.File.Methods {
		groovy.Walk(m, func(n groovy.Node) bool {
			call, ok := n.(*groovy.CallExpr)
			if !ok {
				return true
			}
			switch call.Name {
			case "subscribe":
				b.parseSubscribe(call)
			case "schedule", "runIn", "runOnce",
				"runEvery1Minute", "runEvery5Minutes", "runEvery15Minutes",
				"runEvery30Minutes", "runEvery1Hour", "runEvery3Hours":
				b.parseTimer(call)
			}
			return true
		})
	}
}

func handlerName(e groovy.Expr) (string, bool) {
	switch x := e.(type) {
	case *groovy.Ident:
		return x.Name, true
	case *groovy.StringLit:
		return x.Value, true
	case *groovy.GStringLit:
		return x.StaticText()
	}
	return "", false
}

func (b *builder) parseSubscribe(call *groovy.CallExpr) {
	if len(call.Args) < 2 {
		b.warnf("%s: malformed subscribe ignored", call.Pos)
		return
	}
	sub := Subscription{Pos: call.Pos}
	handle, ok := call.Args[0].(*groovy.Ident)
	if !ok {
		b.warnf("%s: subscribe with non-identifier device ignored", call.Pos)
		return
	}
	sub.Handle = handle.Name

	// Two- or three-argument form: subscribe(app, touchHandler) vs
	// subscribe(dev, "attr[.value]", handler).
	var handlerArg groovy.Expr
	if len(call.Args) == 2 {
		handlerArg = call.Args[1]
	} else {
		handlerArg = call.Args[2]
		ev, ok := groovy.StringValue(call.Args[1])
		if !ok {
			b.warnf("%s: subscribe with dynamic event name ignored", call.Pos)
			return
		}
		if i := strings.Index(ev, "."); i >= 0 {
			sub.Attr, sub.Value = ev[:i], ev[i+1:]
		} else {
			sub.Attr = ev
		}
	}
	h, ok := handlerName(handlerArg)
	if !ok {
		b.warnf("%s: subscribe with dynamic handler ignored", call.Pos)
		return
	}
	sub.Handler = h

	// Deduplicate: installed() and updated() routinely register the
	// same subscriptions.
	for _, s := range b.app.Subscriptions {
		if s.Handle == sub.Handle && s.Attr == sub.Attr && s.Value == sub.Value && s.Handler == sub.Handler {
			return
		}
	}

	switch sub.Handle {
	case "location":
		sub.Kind = ModeEvent
		if sub.Attr == "" {
			sub.Attr = "mode"
		}
	case "app":
		sub.Kind = AppTouchEvent
		sub.Attr = "touch"
	default:
		sub.Kind = DeviceEvent
		if _, ok := b.app.PermissionByHandle(sub.Handle); !ok {
			b.warnf("%s: subscribe references undeclared device %q", call.Pos, sub.Handle)
		}
	}
	b.app.Subscriptions = append(b.app.Subscriptions, sub)
}

func (b *builder) parseTimer(call *groovy.CallExpr) {
	// schedule(timeExpr, handler) / runIn(seconds, handler) /
	// runEveryXMinutes(handler).
	var handlerArg groovy.Expr
	switch len(call.Args) {
	case 0:
		return
	case 1:
		handlerArg = call.Args[0]
	default:
		handlerArg = call.Args[1]
	}
	h, ok := handlerName(handlerArg)
	if !ok {
		b.warnf("%s: %s with dynamic handler ignored", call.Pos, call.Name)
		return
	}
	// Deduplicate: runIn is often re-armed in several places.
	for _, s := range b.app.Subscriptions {
		if s.Kind == TimerEvent && s.Handler == h {
			return
		}
	}
	// Each scheduled handler is its own event: two different schedules
	// firing are distinct occurrences (a sunrise job and a sunset job
	// never race with each other).
	b.app.Subscriptions = append(b.app.Subscriptions, Subscription{
		Handle: "timer", Attr: "time", Value: h, Handler: h, Kind: TimerEvent, Pos: call.Pos,
	})
}

// buildEntryPoints creates one entry point (dummy main) per
// subscription whose handler method exists, each with its call graph.
func (b *builder) buildEntryPoints() {
	for _, sub := range b.app.Subscriptions {
		h := b.app.File.MethodByName(sub.Handler)
		if h == nil {
			b.warnf("%s: handler %q not found", sub.Pos, sub.Handler)
			continue
		}
		cg := b.buildCallGraph(sub.Handler)
		if len(cg.Reflective) > 0 {
			b.app.UsesReflection = true
		}
		b.app.EntryPoints = append(b.app.EntryPoints, &EntryPoint{
			Sub: sub, Handler: h, CallGraph: cg,
		})
	}
	// Reflection anywhere in the app is recorded even if the method is
	// not reachable from a subscription (conservative flag).
	groovy.WalkFile(b.app.File, func(n groovy.Node) bool {
		if c, ok := n.(*groovy.CallExpr); ok && c.Dynamic != nil {
			b.app.UsesReflection = true
		}
		return true
	})
}

// buildCallGraph constructs the call graph rooted at the handler.
// Direct calls resolve to same-named app methods; reflection calls
// with a non-static callee add edges to every app method (the paper's
// safe over-approximation, §4.2.3).
func (b *builder) buildCallGraph(root string) *CallGraph {
	g := &CallGraph{Root: root, Edges: map[string][]string{}}
	var allMethods []string
	for _, m := range b.app.File.Methods {
		allMethods = append(allMethods, m.Name)
	}
	visited := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		if visited[name] {
			return
		}
		visited[name] = true
		m := b.app.File.MethodByName(name)
		if m == nil {
			return
		}
		calleeSet := map[string]bool{}
		var callees []string
		addCallee := func(c string) {
			if c == name || calleeSet[c] {
				return
			}
			calleeSet[c] = true
			callees = append(callees, c)
		}
		groovy.Walk(m, func(n groovy.Node) bool {
			call, ok := n.(*groovy.CallExpr)
			if !ok {
				return true
			}
			if call.Dynamic != nil {
				// Reflection: the string analysis (ReflectionTargets)
				// bounds the callee set where possible; otherwise
				// every app method is a target — the paper's safe
				// over-approximation.
				if gs, ok := call.Dynamic.(*groovy.GStringLit); ok {
					if targets, resolved := ReflectionTargets(b.app, gs); resolved {
						for _, tgt := range targets {
							if b.app.File.MethodByName(tgt) != nil {
								addCallee(tgt)
							}
						}
						return true
					}
				}
				g.Reflective = append(g.Reflective, name)
				for _, c := range allMethods {
					addCallee(c)
				}
				return true
			}
			if call.Recv != nil || call.Name == "" || platformCalls[call.Name] {
				return true
			}
			if b.app.File.MethodByName(call.Name) != nil {
				addCallee(call.Name)
			}
			return true
		})
		g.Edges[name] = callees
		for _, c := range callees {
			visit(c)
		}
	}
	visit(root)
	return g
}

// Print renders the IR in the paper's Fig. 5 textual format.
func Print(a *App) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "// IR of %s\n\n// Permissions block\n", a.Name)
	for _, p := range a.Permissions {
		typ := p.RawType
		if p.Cap != nil {
			typ = p.Cap.Name
		}
		fmt.Fprintf(&sb, "input (%s, %s, type:%s)\n", p.Handle, typ, p.Kind)
	}
	sb.WriteString("\n// Events/Actions block\n")
	for _, s := range a.Subscriptions {
		ev := s.Attr
		if s.Value != "" {
			ev += "." + s.Value
		}
		fmt.Fprintf(&sb, "subscribe(%s, %q, %s)\n", s.Handle, ev, s.Handler)
	}
	sb.WriteString("\n// Entry points\n")
	for _, ep := range a.EntryPoints {
		reach := ep.CallGraph.Reachable()
		fmt.Fprintf(&sb, "%s()  // event: %s; reaches: %s\n",
			ep.Sub.Handler, ep.Sub.EventLabel(), strings.Join(reach, ", "))
	}
	return sb.String()
}
