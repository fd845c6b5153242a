// Package capability is Soteria's device capability reference.
//
// The paper builds this reference by crawling the status/reply code
// blocks of the SmartThings device handlers on GitHub (§4.2.1); the
// crawler's output is a static table per capability listing the
// device's attributes (its state), the attributes' value domains, the
// commands (actions) the device accepts, and each command's effect on
// the attributes. This package encodes that table directly, covering
// every capability used by the paper's example apps, the MalIoT suite,
// and the market corpus, plus the platform's abstract capabilities
// (location mode, app touch, timer).
package capability

import (
	"fmt"
	"strings"
)

// ValueKind classifies an attribute's value domain.
type ValueKind int

const (
	// Enum attributes take one of a small fixed set of string values
	// (e.g. switch: on/off).
	Enum ValueKind = iota
	// Numeric attributes take integer or continuous values (e.g.
	// battery: 0–100); these are the attributes subject to Soteria's
	// property abstraction.
	Numeric
	// Text attributes carry opaque strings (e.g. image capture URLs);
	// they do not contribute states to the model.
	Text
)

func (k ValueKind) String() string {
	switch k {
	case Enum:
		return "enum"
	case Numeric:
		return "numeric"
	case Text:
		return "text"
	}
	return fmt.Sprintf("ValueKind(%d)", int(k))
}

// Attribute is one element of a device's state.
type Attribute struct {
	Name   string
	Kind   ValueKind
	Values []string // enum domain, in canonical order
	// Complements maps an enum value to its complementary value when
	// the attribute has a natural complement pair (active/inactive,
	// open/closed, ...). Used by general properties S.3/S.4.
	Complements map[string]string
}

// HasValue reports whether v is in the attribute's enum domain.
func (a *Attribute) HasValue(v string) bool {
	for _, x := range a.Values {
		if x == v {
			return true
		}
	}
	return false
}

// Complement returns the complementary enum value of v, if the
// attribute defines one.
func (a *Attribute) Complement(v string) (string, bool) {
	c, ok := a.Complements[v]
	return c, ok
}

// Command is a device action exposed by a capability.
type Command struct {
	Name string
	// Effects are the attribute assignments performed by the command
	// (e.g. on() sets switch=on; both() sets alarm=both).
	Effects []Effect
	// ArgAttr, when non-empty, names the attribute set from the
	// command's first argument (e.g. setHeatingSetpoint(t) sets
	// heatingSetpoint to t; setLevel(x) sets level to x).
	ArgAttr string
}

// Effect is a single attribute := value assignment.
type Effect struct {
	Attr  string
	Value string
}

// Capability describes one SmartThings capability.
type Capability struct {
	Name       string // canonical capability name, e.g. "switch"
	Attributes []Attribute
	Commands   []Command
	// Abstract marks platform-level pseudo-capabilities (location,
	// app touch, timer) that are not physical devices.
	Abstract bool
}

// Attribute returns the named attribute.
func (c *Capability) Attribute(name string) (*Attribute, bool) {
	for i := range c.Attributes {
		if c.Attributes[i].Name == name {
			return &c.Attributes[i], true
		}
	}
	return nil, false
}

// Command returns the named command.
func (c *Capability) Command(name string) (*Command, bool) {
	for i := range c.Commands {
		if c.Commands[i].Name == name {
			return &c.Commands[i], true
		}
	}
	return nil, false
}

// PrimaryAttribute returns the capability's first (defining) attribute,
// e.g. "switch" for switch, "motion" for motionSensor. Every concrete
// capability in the registry has at least one attribute.
func (c *Capability) PrimaryAttribute() *Attribute {
	if len(c.Attributes) == 0 {
		return nil
	}
	return &c.Attributes[0]
}

// pair builds the complement map for a two-valued attribute.
func pair(a, b string) map[string]string {
	return map[string]string{a: b, b: a}
}

// registry holds every known capability, keyed by canonical name.
var registry = map[string]*Capability{}

// inputAliases maps the strings apps write in `input` permissions
// (after stripping the "capability." prefix) and other historical
// spellings to canonical capability names.
var inputAliases = map[string]string{
	"doorControl": "garageDoorControl",
	"presence":    "presenceSensor",
	"beacon":      "presenceSensor",
	"co":          "carbonMonoxideDetector",
	"coDetector":  "carbonMonoxideDetector",
}

// Register adds a capability to the registry. It returns an error —
// not a panic — on invalid or duplicate registrations, so callers
// extending the reference at runtime get a recoverable failure.
func Register(c *Capability) error {
	if c == nil || c.Name == "" {
		return fmt.Errorf("capability: registration requires a named capability")
	}
	if _, dup := registry[c.Name]; dup {
		return fmt.Errorf("capability: duplicate registration of %s", c.Name)
	}
	registry[c.Name] = c
	return nil
}

// register is the static-init helper for the built-in catalogue,
// where a duplicate is a programming error caught at package load.
func register(c *Capability) {
	if err := Register(c); err != nil {
		panic(err)
	}
}

// Lookup returns the capability with the given canonical name or
// input alias.
func Lookup(name string) (*Capability, bool) {
	if c, ok := registry[name]; ok {
		return c, true
	}
	if alias, ok := inputAliases[name]; ok {
		return registry[alias], true
	}
	return nil, false
}

// ForInputType resolves the type string of an `input` permission
// ("capability.waterSensor", "capability.switch", ...) to a
// capability. Non-device input types (number, text, phone, contact,
// enum, time, bool, mode) return ok=false.
func ForInputType(t string) (*Capability, bool) {
	if !strings.HasPrefix(t, "capability.") {
		return nil, false
	}
	return Lookup(strings.TrimPrefix(t, "capability."))
}

// IsUserInputType reports whether the input type string denotes a
// user-supplied value rather than a device.
func IsUserInputType(t string) bool {
	switch t {
	case "number", "decimal", "text", "string", "phone", "contact",
		"enum", "time", "bool", "boolean", "mode", "password", "email",
		"hub", "icon":
		return true
	}
	return false
}

func init() {
	register(&Capability{
		Name: "switch",
		Attributes: []Attribute{{
			Name: "switch", Kind: Enum, Values: []string{"off", "on"},
			Complements: pair("on", "off"),
		}},
		Commands: []Command{
			{Name: "on", Effects: []Effect{{Attr: "switch", Value: "on"}}},
			{Name: "off", Effects: []Effect{{Attr: "switch", Value: "off"}}},
		},
	})
	register(&Capability{
		Name: "alarm",
		Attributes: []Attribute{{
			Name: "alarm", Kind: Enum,
			Values:      []string{"off", "siren", "strobe", "both"},
			Complements: pair("siren", "off"),
		}},
		Commands: []Command{
			{Name: "off", Effects: []Effect{{Attr: "alarm", Value: "off"}}},
			{Name: "siren", Effects: []Effect{{Attr: "alarm", Value: "siren"}}},
			{Name: "strobe", Effects: []Effect{{Attr: "alarm", Value: "strobe"}}},
			{Name: "both", Effects: []Effect{{Attr: "alarm", Value: "both"}}},
		},
	})
	register(&Capability{
		Name: "valve",
		Attributes: []Attribute{{
			Name: "valve", Kind: Enum, Values: []string{"closed", "open"},
			Complements: pair("open", "closed"),
		}},
		Commands: []Command{
			{Name: "open", Effects: []Effect{{Attr: "valve", Value: "open"}}},
			{Name: "close", Effects: []Effect{{Attr: "valve", Value: "closed"}}},
		},
	})
	register(&Capability{
		Name: "lock",
		Attributes: []Attribute{{
			Name: "lock", Kind: Enum, Values: []string{"unlocked", "locked"},
			Complements: pair("locked", "unlocked"),
		}},
		Commands: []Command{
			{Name: "lock", Effects: []Effect{{Attr: "lock", Value: "locked"}}},
			{Name: "unlock", Effects: []Effect{{Attr: "lock", Value: "unlocked"}}},
		},
	})
	register(&Capability{
		Name: "smokeDetector",
		Attributes: []Attribute{{
			Name: "smoke", Kind: Enum,
			Values:      []string{"clear", "detected", "tested"},
			Complements: pair("detected", "clear"),
		}},
	})
	register(&Capability{
		Name: "carbonMonoxideDetector",
		Attributes: []Attribute{{
			Name: "carbonMonoxide", Kind: Enum,
			Values:      []string{"clear", "detected", "tested"},
			Complements: pair("detected", "clear"),
		}},
	})
	register(&Capability{
		Name: "waterSensor",
		Attributes: []Attribute{{
			Name: "water", Kind: Enum, Values: []string{"dry", "wet"},
			Complements: pair("wet", "dry"),
		}},
	})
	register(&Capability{
		Name: "motionSensor",
		Attributes: []Attribute{{
			Name: "motion", Kind: Enum, Values: []string{"inactive", "active"},
			Complements: pair("active", "inactive"),
		}},
	})
	register(&Capability{
		Name: "contactSensor",
		Attributes: []Attribute{{
			Name: "contact", Kind: Enum, Values: []string{"closed", "open"},
			Complements: pair("open", "closed"),
		}},
	})
	register(&Capability{
		Name: "presenceSensor",
		Attributes: []Attribute{{
			Name: "presence", Kind: Enum,
			Values:      []string{"not present", "present"},
			Complements: pair("present", "not present"),
		}},
	})
	register(&Capability{
		Name: "accelerationSensor",
		Attributes: []Attribute{{
			Name: "acceleration", Kind: Enum,
			Values:      []string{"inactive", "active"},
			Complements: pair("active", "inactive"),
		}},
	})
	register(&Capability{
		Name: "sleepSensor",
		Attributes: []Attribute{{
			Name: "sleeping", Kind: Enum,
			Values:      []string{"not sleeping", "sleeping"},
			Complements: pair("sleeping", "not sleeping"),
		}},
	})
	register(&Capability{
		Name: "battery",
		Attributes: []Attribute{{
			Name: "battery", Kind: Numeric,
		}},
	})
	register(&Capability{
		Name: "powerMeter",
		Attributes: []Attribute{{
			Name: "power", Kind: Numeric,
		}},
	})
	register(&Capability{
		Name: "energyMeter",
		Attributes: []Attribute{{
			Name: "energy", Kind: Numeric,
		}},
	})
	register(&Capability{
		Name: "temperatureMeasurement",
		Attributes: []Attribute{{
			Name: "temperature", Kind: Numeric,
		}},
	})
	register(&Capability{
		Name: "relativeHumidityMeasurement",
		Attributes: []Attribute{{
			Name: "humidity", Kind: Numeric,
		}},
	})
	register(&Capability{
		Name: "illuminanceMeasurement",
		Attributes: []Attribute{{
			Name: "illuminance", Kind: Numeric,
		}},
	})
	register(&Capability{
		Name: "thermostat",
		Attributes: []Attribute{
			{Name: "thermostatMode", Kind: Enum,
				Values:      []string{"off", "heat", "cool", "auto"},
				Complements: pair("heat", "off")},
			{Name: "heatingSetpoint", Kind: Numeric},
			{Name: "coolingSetpoint", Kind: Numeric},
			{Name: "temperature", Kind: Numeric},
		},
		Commands: []Command{
			{Name: "off", Effects: []Effect{{Attr: "thermostatMode", Value: "off"}}},
			{Name: "heat", Effects: []Effect{{Attr: "thermostatMode", Value: "heat"}}},
			{Name: "cool", Effects: []Effect{{Attr: "thermostatMode", Value: "cool"}}},
			{Name: "auto", Effects: []Effect{{Attr: "thermostatMode", Value: "auto"}}},
			{Name: "setHeatingSetpoint", ArgAttr: "heatingSetpoint"},
			{Name: "setCoolingSetpoint", ArgAttr: "coolingSetpoint"},
		},
	})
	register(&Capability{
		Name: "switchLevel",
		Attributes: []Attribute{
			{Name: "level", Kind: Numeric},
		},
		Commands: []Command{
			{Name: "setLevel", ArgAttr: "level"},
		},
	})
	register(&Capability{
		Name: "musicPlayer",
		Attributes: []Attribute{{
			Name: "status", Kind: Enum,
			Values:      []string{"stopped", "playing", "paused"},
			Complements: pair("playing", "stopped"),
		}},
		Commands: []Command{
			{Name: "play", Effects: []Effect{{Attr: "status", Value: "playing"}}},
			{Name: "pause", Effects: []Effect{{Attr: "status", Value: "paused"}}},
			{Name: "stop", Effects: []Effect{{Attr: "status", Value: "stopped"}}},
		},
	})
	register(&Capability{
		Name: "garageDoorControl",
		Attributes: []Attribute{{
			Name: "door", Kind: Enum,
			Values:      []string{"closed", "open", "opening", "closing"},
			Complements: pair("open", "closed"),
		}},
		Commands: []Command{
			{Name: "open", Effects: []Effect{{Attr: "door", Value: "open"}}},
			{Name: "close", Effects: []Effect{{Attr: "door", Value: "closed"}}},
		},
	})
	register(&Capability{
		Name: "imageCapture",
		Attributes: []Attribute{{
			Name: "image", Kind: Enum, Values: []string{"idle", "taken"},
		}},
		Commands: []Command{
			{Name: "take", Effects: []Effect{{Attr: "image", Value: "taken"}}},
		},
	})
	register(&Capability{
		Name: "windowShade",
		Attributes: []Attribute{{
			Name: "windowShade", Kind: Enum,
			Values:      []string{"closed", "open", "partially open"},
			Complements: pair("open", "closed"),
		}},
		Commands: []Command{
			{Name: "open", Effects: []Effect{{Attr: "windowShade", Value: "open"}}},
			{Name: "close", Effects: []Effect{{Attr: "windowShade", Value: "closed"}}},
		},
	})
	register(&Capability{
		Name: "fanControl",
		Attributes: []Attribute{{
			Name: "fan", Kind: Enum, Values: []string{"off", "on"},
			Complements: pair("on", "off"),
		}},
		Commands: []Command{
			{Name: "fanOn", Effects: []Effect{{Attr: "fan", Value: "on"}}},
			{Name: "fanOff", Effects: []Effect{{Attr: "fan", Value: "off"}}},
		},
	})

	// Abstract capabilities (§4.2.3): location mode changes, app touch
	// (icon click) events, and scheduled timer events.
	register(&Capability{
		Name:     "location",
		Abstract: true,
		Attributes: []Attribute{{
			Name: "mode", Kind: Enum,
			Values:      []string{"home", "away", "night"},
			Complements: pair("home", "away"),
		}},
		Commands: []Command{
			{Name: "setLocationMode", ArgAttr: "mode"},
		},
	})
	register(&Capability{
		Name:     "app",
		Abstract: true,
		Attributes: []Attribute{{
			Name: "touch", Kind: Enum, Values: []string{"idle", "touched"},
		}},
	})
	register(&Capability{
		Name:     "timer",
		Abstract: true,
		Attributes: []Attribute{{
			Name: "time", Kind: Enum, Values: []string{"idle", "fired"},
		}},
	})
}
