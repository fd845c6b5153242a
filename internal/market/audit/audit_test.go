package audit

import (
	"context"
	"fmt"
	"testing"

	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/properties"
)

func fingerprint(r *Report) string {
	var sb []byte
	for _, es := range [][]Entry{r.Apps, r.Groups} {
		for _, e := range es {
			sb = fmt.Appendf(sb, "%s=%v/%v/%v;", e.ID, e.Violated, e.Incomplete, e.Err != nil)
		}
	}
	return string(sb)
}

// TestRunCacheInteraction requires a cold audit to memoize every item
// and a warm one to be served from those entries without re-analysis:
// a re-run item would replace its entry with a fresh *Analysis.
func TestRunCacheInteraction(t *testing.T) {
	apps, groups := market.All(), market.Groups()
	cache := core.NewCache()

	first := Run(context.Background(), 4, cache)
	if got, want := len(first.Apps)+len(first.Groups), len(apps)+len(groups); got != want {
		t.Fatalf("audit produced %d entries, corpus has %d items", got, want)
	}
	opts := core.DefaultOptions()
	var keys []string
	for _, a := range apps {
		keys = append(keys, core.AnalysisKey([]core.NamedSource{{Name: a.Name, Source: a.Source}}, opts))
	}
	for _, g := range groups {
		var srcs []core.NamedSource
		for _, id := range g.Members {
			if a, ok := market.ByID(id); ok {
				srcs = append(srcs, core.NamedSource{Name: a.Name, Source: a.Source})
			}
		}
		keys = append(keys, core.AnalysisKey(srcs, opts))
	}
	cold := map[string]*core.Analysis{}
	for _, k := range keys {
		an, ok := cache.LookupAnalysis(k)
		if !ok {
			t.Fatalf("cold audit did not memoize item %s", k)
		}
		cold[k] = an
	}

	second := Run(context.Background(), 4, cache)
	for _, k := range keys {
		if an, _ := cache.LookupAnalysis(k); an != cold[k] {
			t.Fatalf("warm audit re-analyzed item %s", k)
		}
	}
	if fingerprint(first) != fingerprint(second) {
		t.Error("cached audit differs from the cold one")
	}

	// The cache is optional: a nil cache must not change the verdicts.
	uncached := Run(context.Background(), 4, nil)
	if fingerprint(first) != fingerprint(uncached) {
		t.Error("uncached audit differs from the cached one")
	}
}

func TestRunViolationOrdering(t *testing.T) {
	rep := Run(context.Background(), 4, nil)

	apps := market.All()
	if len(rep.Apps) != len(apps) {
		t.Fatalf("%d app entries for %d corpus apps", len(rep.Apps), len(apps))
	}
	for i, e := range rep.Apps {
		if e.ID != apps[i].ID {
			t.Errorf("entry %d is %s, corpus order says %s", i, e.ID, apps[i].ID)
		}
		if e.Members != nil {
			t.Errorf("individual app %s carries group members %v", e.ID, e.Members)
		}
	}
	groups := market.Groups()
	if len(rep.Groups) != len(groups) {
		t.Fatalf("%d group entries for %d groups", len(rep.Groups), len(groups))
	}
	for i, e := range rep.Groups {
		if e.ID != groups[i].ID {
			t.Errorf("group entry %d is %s, want %s", i, e.ID, groups[i].ID)
		}
		if len(e.Members) == 0 {
			t.Errorf("group %s lists no members", e.ID)
		}
	}

	someViolations := false
	for _, es := range [][]Entry{rep.Apps, rep.Groups} {
		for _, e := range es {
			if e.Err != nil {
				t.Errorf("%s: hard failure: %v", e.ID, e.Err)
				continue
			}
			seen := map[string]bool{}
			for j, id := range e.Violated {
				someViolations = true
				if seen[id] {
					t.Errorf("%s: duplicate violated ID %s", e.ID, id)
				}
				seen[id] = true
				if j > 0 && properties.IDRank(e.Violated[j-1]) > properties.IDRank(id) {
					t.Errorf("%s: violations out of catalogue order: %s before %s",
						e.ID, e.Violated[j-1], id)
				}
			}
		}
	}
	if !someViolations {
		t.Error("no entry in the whole market audit reports a violation; corpus wiring broken")
	}
}
