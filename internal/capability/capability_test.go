package capability

import "testing"

func TestLookupKnownCapabilities(t *testing.T) {
	for _, name := range []string{
		"switch", "alarm", "valve", "lock", "smokeDetector",
		"waterSensor", "motionSensor", "contactSensor",
		"presenceSensor", "battery", "powerMeter", "thermostat",
		"musicPlayer", "garageDoorControl", "location", "app", "timer",
	} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) failed", name)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("quantumFluxCapacitor"); ok {
		t.Error("unexpected capability")
	}
}

func TestForInputType(t *testing.T) {
	c, ok := ForInputType("capability.waterSensor")
	if !ok || c.Name != "waterSensor" {
		t.Fatalf("got %v, %v", c, ok)
	}
	if _, ok := ForInputType("number"); ok {
		t.Error("number should not resolve to a capability")
	}
	if _, ok := ForInputType("capability.nonexistent"); ok {
		t.Error("unknown capability should not resolve")
	}
}

func TestInputAliases(t *testing.T) {
	c, ok := Lookup("doorControl")
	if !ok || c.Name != "garageDoorControl" {
		t.Errorf("doorControl alias: got %v, %v", c, ok)
	}
}

func TestIsUserInputType(t *testing.T) {
	for _, typ := range []string{"number", "text", "phone", "contact", "enum", "time", "bool", "mode"} {
		if !IsUserInputType(typ) {
			t.Errorf("IsUserInputType(%q) = false", typ)
		}
	}
	if IsUserInputType("capability.switch") {
		t.Error("capability.switch is not a user input type")
	}
}

func TestCommandEffects(t *testing.T) {
	sw, _ := Lookup("switch")
	on, ok := sw.Command("on")
	if !ok {
		t.Fatal("switch.on missing")
	}
	if len(on.Effects) != 1 || on.Effects[0] != (Effect{Attr: "switch", Value: "on"}) {
		t.Errorf("on effects = %+v", on.Effects)
	}
	v, _ := Lookup("valve")
	cl, _ := v.Command("close")
	if cl.Effects[0].Value != "closed" {
		t.Errorf("valve.close should set valve=closed, got %q", cl.Effects[0].Value)
	}
}

func TestArgAttrCommands(t *testing.T) {
	th, _ := Lookup("thermostat")
	c, ok := th.Command("setHeatingSetpoint")
	if !ok || c.ArgAttr != "heatingSetpoint" {
		t.Errorf("setHeatingSetpoint = %+v, %v", c, ok)
	}
	loc, _ := Lookup("location")
	m, ok := loc.Command("setLocationMode")
	if !ok || m.ArgAttr != "mode" {
		t.Errorf("setLocationMode = %+v, %v", m, ok)
	}
}

func TestComplements(t *testing.T) {
	cases := []struct{ cap, attr, v, want string }{
		{"motionSensor", "motion", "active", "inactive"},
		{"contactSensor", "contact", "open", "closed"},
		{"switch", "switch", "on", "off"},
		{"smokeDetector", "smoke", "detected", "clear"},
		{"waterSensor", "water", "wet", "dry"},
	}
	for _, c := range cases {
		cp, _ := Lookup(c.cap)
		a, ok := cp.Attribute(c.attr)
		if !ok {
			t.Fatalf("%s.%s missing", c.cap, c.attr)
		}
		got, ok := a.Complement(c.v)
		if !ok || got != c.want {
			t.Errorf("complement(%s.%s=%s) = %q, want %q", c.cap, c.attr, c.v, got, c.want)
		}
	}
}

func TestComplementIsInvolution(t *testing.T) {
	// Property: complement(complement(v)) == v for every enum value
	// that has a complement.
	for name, c := range registry {
		for _, a := range c.Attributes {
			for v, cv := range a.Complements {
				back, ok := a.Complement(cv)
				if !ok || back != v {
					t.Errorf("%s.%s: complement not involutive at %q (-> %q -> %q)", name, a.Name, v, cv, back)
				}
			}
		}
	}
}

func TestEnumValuesAreDistinct(t *testing.T) {
	for name, c := range registry {
		for _, a := range c.Attributes {
			seen := map[string]bool{}
			for _, v := range a.Values {
				if seen[v] {
					t.Errorf("%s.%s: duplicate enum value %q", name, a.Name, v)
				}
				seen[v] = true
			}
		}
	}
}

func TestEffectsReferenceDeclaredAttributes(t *testing.T) {
	// Every command effect must target a declared attribute with a
	// value in its domain; every ArgAttr must be a declared attribute.
	for name, c := range registry {
		for _, cmd := range c.Commands {
			if cmd.ArgAttr != "" {
				if _, ok := c.Attribute(cmd.ArgAttr); !ok {
					t.Errorf("%s.%s: ArgAttr %q not declared", name, cmd.Name, cmd.ArgAttr)
				}
			}
			for _, e := range cmd.Effects {
				a, ok := c.Attribute(e.Attr)
				if !ok {
					t.Errorf("%s.%s: effect attr %q not declared", name, cmd.Name, e.Attr)
					continue
				}
				if a.Kind == Enum && !a.HasValue(e.Value) {
					t.Errorf("%s.%s: effect value %q not in %s's domain %v", name, cmd.Name, e.Value, e.Attr, a.Values)
				}
			}
		}
	}
}

// TestNamesSortedAndComplete pins the registry's size and that every
// entry is keyed by its canonical name.
func TestNamesSortedAndComplete(t *testing.T) {
	if len(registry) < 20 {
		t.Errorf("registry has only %d capabilities", len(registry))
	}
	for name, c := range registry {
		if c.Name != name {
			t.Errorf("registry key %q holds capability %q", name, c.Name)
		}
	}
}

func TestAbstractCapabilities(t *testing.T) {
	for _, n := range []string{"location", "app", "timer"} {
		c, ok := Lookup(n)
		if !ok || !c.Abstract {
			t.Errorf("%s should be abstract", n)
		}
	}
	sw, _ := Lookup("switch")
	if sw.Abstract {
		t.Error("switch should not be abstract")
	}
}

func TestRegisterDuplicateReturnsError(t *testing.T) {
	c := &Capability{Name: "testOnlyRegisterProbe"}
	if err := Register(c); err != nil {
		t.Fatalf("first Register: %v", err)
	}
	defer delete(registry, c.Name)
	if err := Register(c); err == nil {
		t.Fatal("duplicate Register should return an error")
	}
	if err := Register(nil); err == nil {
		t.Fatal("nil Register should return an error")
	}
	if err := Register(&Capability{}); err == nil {
		t.Fatal("unnamed Register should return an error")
	}
}
