//go:build !race

package statemodel

import (
	"testing"

	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/market"
)

// TestBuildAllocBudget bounds Build's allocations, which are
// deterministic for a fixed input. Extraction works on compiled
// per-path programs and packed state IDs; a regression to per-state
// strings or per-edge label rendering costs one or more allocations
// per (path, event, state) and breaks these bounds by an order of
// magnitude (G.3 allocated about 2.1M before compilation, O12 about
// 2,700). Race builds allocate differently, hence the build tag.
func TestBuildAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name  string
		ids   []string
		limit float64
	}{
		{"G.3", []string{"O7", "TP3", "O30", "TP21", "O31", "TP22", "O12", "TP19"}, 250_000},
		{"O12 (thermostat)", []string{"O12"}, 1_000},
	} {
		var apps []*ir.App
		for _, id := range c.ids {
			spec, ok := market.ByID(id)
			if !ok {
				t.Fatalf("%s: no app %s", c.name, id)
			}
			app, err := spec.Parse()
			if err != nil {
				t.Fatal(err)
			}
			apps = append(apps, app)
		}
		got := testing.AllocsPerRun(2, func() {
			if _, err := Build(apps...); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.limit {
			t.Errorf("%s: Build allocates %.0f times, budget %.0f", c.name, got, c.limit)
		}
		t.Logf("%s: %.0f allocations (budget %.0f)", c.name, got, c.limit)
	}
}
