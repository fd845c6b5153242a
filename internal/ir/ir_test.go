package ir

import (
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/capability"
	"github.com/soteria-analysis/soteria/internal/paperapps"
)

func buildOK(t *testing.T, name, src string) *App {
	t.Helper()
	app, err := BuildSource(name, src)
	if err != nil {
		t.Fatalf("BuildSource(%s): %v", name, err)
	}
	return app
}

func TestSmokeAlarmPermissions(t *testing.T) {
	app := buildOK(t, "smoke-alarm", paperapps.SmokeAlarm)
	// Paper Fig. 5: five devices plus the thrshld user input.
	want := []struct {
		handle string
		kind   PermKind
		cap    string
	}{
		{"smoke_detector", Device, "smokeDetector"},
		{"the_switch", Device, "switch"},
		{"the_alarm", Device, "alarm"},
		{"the_valve", Device, "valve"},
		{"the_battery", Device, "battery"},
		{"thrshld", UserInput, ""},
	}
	if len(app.Permissions) != len(want) {
		t.Fatalf("permissions = %d, want %d: %+v", len(app.Permissions), len(want), app.Permissions)
	}
	for i, w := range want {
		p := app.Permissions[i]
		if p.Handle != w.handle || p.Kind != w.kind {
			t.Errorf("perm %d = %+v, want %+v", i, p, w)
		}
		if w.cap != "" && (p.Cap == nil || p.Cap.Name != w.cap) {
			t.Errorf("perm %d capability = %v, want %s", i, p.Cap, w.cap)
		}
	}
}

func TestSmokeAlarmSubscriptions(t *testing.T) {
	app := buildOK(t, "smoke-alarm", paperapps.SmokeAlarm)
	if len(app.Subscriptions) != 2 {
		t.Fatalf("subscriptions = %+v", app.Subscriptions)
	}
	s0 := app.Subscriptions[0]
	if s0.Handle != "smoke_detector" || s0.Attr != "smoke" || s0.Handler != "smokeHandler" || s0.Kind != DeviceEvent {
		t.Errorf("sub 0 = %+v", s0)
	}
	s1 := app.Subscriptions[1]
	if s1.Handle != "the_battery" || s1.Attr != "battery" || s1.Handler != "batteryHandler" {
		t.Errorf("sub 1 = %+v", s1)
	}
}

func TestSmokeAlarmEntryPointsAndCallGraph(t *testing.T) {
	app := buildOK(t, "smoke-alarm", paperapps.SmokeAlarm)
	if len(app.EntryPoints) != 2 {
		t.Fatalf("entry points = %d", len(app.EntryPoints))
	}
	// batteryHandler calls findBatteryLevel (the p() of Fig. 5).
	var battery *EntryPoint
	for _, ep := range app.EntryPoints {
		if ep.Sub.Handler == "batteryHandler" {
			battery = ep
		}
	}
	if battery == nil {
		t.Fatal("batteryHandler entry point missing")
	}
	reach := battery.CallGraph.Reachable()
	if len(reach) != 2 || reach[0] != "batteryHandler" || reach[1] != "findBatteryLevel" {
		t.Errorf("reachable = %v", reach)
	}
	if app.UsesReflection {
		t.Error("smoke-alarm does not use reflection")
	}
}

func TestWaterLeakSubscriptionWithValue(t *testing.T) {
	app := buildOK(t, "water-leak", paperapps.WaterLeakDetector)
	var sub *Subscription
	for i := range app.Subscriptions {
		if app.Subscriptions[i].Handler == "waterWetHandler" {
			sub = &app.Subscriptions[i]
		}
	}
	if sub == nil {
		t.Fatal("waterWetHandler subscription missing")
	}
	if sub.Attr != "water" || sub.Value != "wet" {
		t.Errorf("sub = %+v", sub)
	}
	if sub.EventLabel() != "water_sensor.water.wet" {
		t.Errorf("label = %s", sub.EventLabel())
	}
}

func TestThermostatModeSubscription(t *testing.T) {
	app := buildOK(t, "thermostat", paperapps.ThermostatEnergyControl)
	var mode *Subscription
	for i := range app.Subscriptions {
		if app.Subscriptions[i].Kind == ModeEvent {
			mode = &app.Subscriptions[i]
		}
	}
	if mode == nil {
		t.Fatal("mode subscription missing")
	}
	if mode.Handler != "modeChangeHandler" || mode.Attr != "mode" {
		t.Errorf("mode sub = %+v", mode)
	}
	if !app.SubscribesToMode() {
		t.Error("SubscribesToMode should be true")
	}
	// modeChangeHandler -> setTemp -> send chain.
	var ep *EntryPoint
	for _, e := range app.EntryPoints {
		if e.Sub.Handler == "modeChangeHandler" {
			ep = e
		}
	}
	reach := ep.CallGraph.Reachable()
	joined := strings.Join(reach, ",")
	if !strings.Contains(joined, "setTemp") || !strings.Contains(joined, "send") {
		t.Errorf("reachable = %v", reach)
	}
}

func TestReflectionOverApproximation(t *testing.T) {
	src := `
preferences {
    section("s") { input "the_alarm", "capability.alarm" }
    section("d") { input "smoke_detector", "capability.smokeDetector" }
}
def installed() {
    subscribe(smoke_detector, "smoke", handler)
}
def handler(evt) {
    "$name"()
}
def foo() { the_alarm.siren() }
def bar() { the_alarm.off() }
`
	app := buildOK(t, "reflect", src)
	if !app.UsesReflection {
		t.Fatal("UsesReflection should be true")
	}
	ep := app.EntryPoints[0]
	reach := strings.Join(ep.CallGraph.Reachable(), ",")
	// Over-approximation: both foo and bar become call targets.
	if !strings.Contains(reach, "foo") || !strings.Contains(reach, "bar") {
		t.Errorf("reachable = %s", reach)
	}
	if len(ep.CallGraph.Reflective) == 0 {
		t.Error("reflective call sites not recorded")
	}
}

func TestStaticReflectionResolvesDirectly(t *testing.T) {
	src := `
def installed() { subscribe(app, touchHandler) }
def touchHandler(evt) {
    "helper"()
}
def helper() { x = 1 }
def unrelated() { y = 2 }
`
	app := buildOK(t, "static-reflect", src)
	ep := app.EntryPoints[0]
	reach := strings.Join(ep.CallGraph.Reachable(), ",")
	if !strings.Contains(reach, "helper") {
		t.Errorf("reachable = %s", reach)
	}
	if strings.Contains(reach, "unrelated") {
		t.Errorf("static reflection should not over-approximate: %s", reach)
	}
}

func TestAppTouchSubscription(t *testing.T) {
	src := `
preferences { section("s") { input "sw", "capability.switch" } }
def installed() { subscribe(app, touchHandler) }
def touchHandler(evt) { sw.on() }
`
	app := buildOK(t, "touch", src)
	if len(app.Subscriptions) != 1 || app.Subscriptions[0].Kind != AppTouchEvent {
		t.Fatalf("subs = %+v", app.Subscriptions)
	}
	if app.Subscriptions[0].EventLabel() != "app touch" {
		t.Errorf("label = %s", app.Subscriptions[0].EventLabel())
	}
}

func TestTimerSubscriptions(t *testing.T) {
	src := `
preferences { section("s") { input "sw", "capability.switch" } }
def installed() {
    schedule("0 0 12 * * ?", noonHandler)
    runIn(60, offHandler)
}
def noonHandler() { sw.on() }
def offHandler() { sw.off() }
`
	app := buildOK(t, "timers", src)
	timers := 0
	for _, s := range app.Subscriptions {
		if s.Kind == TimerEvent {
			timers++
		}
	}
	if timers != 2 {
		t.Errorf("timer subscriptions = %d, want 2", timers)
	}
}

func TestTimerDedup(t *testing.T) {
	src := `
preferences { section("s") { input "sw", "capability.switch" } }
def installed() { subscribe(sw, "switch.on", onHandler) }
def onHandler(evt) {
    runIn(60, offHandler)
    runIn(120, offHandler)
}
def offHandler() { sw.off() }
`
	app := buildOK(t, "timer-dedup", src)
	timers := 0
	for _, s := range app.Subscriptions {
		if s.Kind == TimerEvent {
			timers++
		}
	}
	if timers != 1 {
		t.Errorf("timer subscriptions = %d, want 1 (deduplicated)", timers)
	}
}

func TestStateFieldsCollected(t *testing.T) {
	src := `
preferences { section("s") { input "sw", "capability.switch" } }
def installed() { subscribe(sw, "switch.on", h) }
def h(evt) {
    state.counter = state.counter + 1
    atomicState.lastTime = now()
    if (state.counter > 10) { sw.off() }
}
`
	app := buildOK(t, "state", src)
	if len(app.StateFields) != 2 || app.StateFields[0] != "counter" || app.StateFields[1] != "lastTime" {
		t.Errorf("state fields = %v", app.StateFields)
	}
}

func TestDefinitionMetadata(t *testing.T) {
	app := buildOK(t, "", paperapps.SmokeAlarm)
	if app.Definition["category"] != "Safety & Security" {
		t.Errorf("category = %q", app.Definition["category"])
	}
	if app.Name != "Smoke-Alarm" {
		t.Errorf("name = %q", app.Name)
	}
}

func TestCapabilitiesAndHasCapability(t *testing.T) {
	app := buildOK(t, "thermostat", paperapps.ThermostatEnergyControl)
	caps := app.Capabilities()
	want := []string{"lock", "powerMeter", "switch", "thermostat"}
	if len(caps) != len(want) {
		t.Fatalf("caps = %v, want %v", caps, want)
	}
	for i := range want {
		if caps[i] != want[i] {
			t.Errorf("caps[%d] = %s, want %s", i, caps[i], want[i])
		}
	}
}

func TestUndeclaredDeviceWarning(t *testing.T) {
	src := `
def installed() { subscribe(ghost, "switch.on", h) }
def h(evt) { }
`
	app := buildOK(t, "warn", src)
	found := false
	for _, w := range app.Warnings {
		if strings.Contains(w, "undeclared device") {
			found = true
		}
	}
	if !found {
		t.Errorf("warnings = %v", app.Warnings)
	}
}

func TestMissingHandlerWarning(t *testing.T) {
	src := `
preferences { section("s") { input "sw", "capability.switch" } }
def installed() { subscribe(sw, "switch.on", nonexistent) }
`
	app := buildOK(t, "warn2", src)
	if len(app.EntryPoints) != 0 {
		t.Errorf("entry points = %d, want 0", len(app.EntryPoints))
	}
	found := false
	for _, w := range app.Warnings {
		if strings.Contains(w, "not found") {
			found = true
		}
	}
	if !found {
		t.Errorf("warnings = %v", app.Warnings)
	}
}

func TestPrintMatchesPaperFormat(t *testing.T) {
	app := buildOK(t, "smoke-alarm", paperapps.SmokeAlarm)
	out := Print(app)
	for _, want := range []string{
		"input (smoke_detector, smokeDetector, type:device)",
		"input (thrshld, number, type:user_defined)",
		`subscribe(smoke_detector, "smoke", smokeHandler)`,
		`subscribe(the_battery, "battery", batteryHandler)`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("IR print missing %q:\n%s", want, out)
		}
	}
}

func TestDevicesAndUserInputsSplit(t *testing.T) {
	app := buildOK(t, "smoke-alarm", paperapps.SmokeAlarm)
	if len(app.Devices()) != 5 {
		t.Errorf("devices = %d, want 5", len(app.Devices()))
	}
	ins := app.UserInputs()
	if len(ins) != 1 || ins[0].Handle != "thrshld" {
		t.Errorf("user inputs = %+v", ins)
	}
}

func TestPermissionCapabilityResolution(t *testing.T) {
	app := buildOK(t, "water-leak", paperapps.WaterLeakDetector)
	p, ok := app.PermissionByHandle("water_sensor")
	if !ok || p.Cap == nil {
		t.Fatal("water_sensor permission missing")
	}
	attr, ok := p.Cap.Attribute("water")
	if !ok || attr.Kind != capability.Enum {
		t.Errorf("water attribute = %+v", attr)
	}
}

func TestReflectionStringAnalysisBoundsTargets(t *testing.T) {
	// §7 future work: the interpolated variable is only ever assigned
	// constants, so the call-graph targets are exactly {foo, bar} —
	// not every method.
	src := `
preferences { section("s") { input "the_alarm", "capability.alarm" } }
def installed() { subscribe(app, h) }
def h(evt) {
    def action = "foo"
    if (now() > 0) {
        action = "bar"
    }
    "$action"()
}
def foo() { the_alarm.siren() }
def bar() { the_alarm.strobe() }
def unrelated() { the_alarm.off() }
`
	app := buildOK(t, "refined-reflect", src)
	ep := app.EntryPoints[0]
	reach := strings.Join(ep.CallGraph.Reachable(), ",")
	if !strings.Contains(reach, "foo") || !strings.Contains(reach, "bar") {
		t.Errorf("reachable = %s", reach)
	}
	if strings.Contains(reach, "unrelated") {
		t.Errorf("string analysis should exclude unrelated: %s", reach)
	}
	if len(ep.CallGraph.Reflective) != 0 {
		t.Error("bounded reflection should not be recorded as over-approximated")
	}
}

func TestReflectionUnboundedValueStillOverApproximates(t *testing.T) {
	// The App5 pattern: the name flows from httpGet — the string
	// analysis must give up and keep the safe over-approximation.
	src := `
preferences { section("s") { input "the_alarm", "capability.alarm" } }
def installed() { subscribe(app, h) }
def h(evt) {
    httpGet("http://x") { resp ->
        state.m = resp.data.toString()
    }
    "${state.m}"()
}
def foo() { the_alarm.siren() }
def bar() { the_alarm.off() }
`
	app := buildOK(t, "unbounded-reflect", src)
	ep := app.EntryPoints[0]
	reach := strings.Join(ep.CallGraph.Reachable(), ",")
	if !strings.Contains(reach, "foo") || !strings.Contains(reach, "bar") {
		t.Errorf("reachable = %s", reach)
	}
	if len(ep.CallGraph.Reflective) == 0 {
		t.Error("unbounded reflection must be recorded")
	}
}

func TestReflectionStateFieldConstants(t *testing.T) {
	// state.mode is assigned only constants: targets bounded.
	src := `
preferences { section("s") { input "sw", "capability.switch" } }
def installed() { subscribe(sw, "switch.on", h) }
def h(evt) {
    state.mode = "enable"
    "${state.mode}Switch"()
}
def enableSwitch() { sw.on() }
def disableSwitch() { sw.off() }
`
	app := buildOK(t, "state-reflect", src)
	ep := app.EntryPoints[0]
	reach := strings.Join(ep.CallGraph.Reachable(), ",")
	if !strings.Contains(reach, "enableSwitch") {
		t.Errorf("reachable = %s", reach)
	}
	if strings.Contains(reach, "disableSwitch") {
		t.Errorf("suffix concatenation should bound targets: %s", reach)
	}
}
