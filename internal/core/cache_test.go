package core

import (
	"fmt"
	"sync"
	"testing"
)

func TestSourceHashBoundaries(t *testing.T) {
	// Length prefixing: moving a byte across the name/source boundary
	// must change the hash.
	a := SourceHash(NamedSource{Name: "ab", Source: "c"})
	b := SourceHash(NamedSource{Name: "a", Source: "bc"})
	if a == b {
		t.Fatal("name/source boundary does not affect SourceHash")
	}
	if a != SourceHash(NamedSource{Name: "ab", Source: "c"}) {
		t.Fatal("SourceHash is not deterministic")
	}
}

func TestAnalysisKeyOptionSensitivity(t *testing.T) {
	srcs := []NamedSource{{Name: "x", Source: "y"}}
	base := DefaultOptions()
	key := AnalysisKey(srcs, base)

	general := base
	general.AppSpecific = false
	if AnalysisKey(srcs, general) == key {
		t.Fatal("property-family selection does not affect AnalysisKey")
	}
	filtered := base
	filtered.PropertyIDs = []string{"P.1"}
	if AnalysisKey(srcs, filtered) == key {
		t.Fatal("property filter does not affect AnalysisKey")
	}
	limited := base
	limited.Limits.MaxStates = 7
	if AnalysisKey(srcs, limited) == key {
		t.Fatal("resource limits do not affect AnalysisKey")
	}
	// Parallelism must NOT affect the key: parallel and sequential runs
	// produce identical verdicts, so they share a content address.
	par := base
	par.Parallel = 8
	if AnalysisKey(srcs, par) != key {
		t.Fatal("Parallel leaked into AnalysisKey")
	}
}

// TestCacheStoreAndLookup pins the analysis level's contract: a stored
// analysis is found, and partial or nil analyses are never cached.
func TestCacheStoreAndLookup(t *testing.T) {
	c := NewCache()
	if _, ok := c.LookupAnalysis("k"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.StoreAnalysis("k", &Analysis{Checked: []string{"S.1"}})
	if an, ok := c.LookupAnalysis("k"); !ok || an.Checked[0] != "S.1" {
		t.Fatal("stored analysis not found")
	}
	c.StoreAnalysis("partial", &Analysis{Incomplete: true})
	c.StoreAnalysis("nil", nil)
	for _, k := range []string{"partial", "nil"} {
		if _, ok := c.LookupAnalysis(k); ok {
			t.Fatalf("%s analysis was cached", k)
		}
	}
}

func TestCacheNilSafety(t *testing.T) {
	var c *Cache
	if _, ok := c.LookupAnalysis("k"); ok {
		t.Fatal("nil cache reported a hit")
	}
	c.StoreAnalysis("k", &Analysis{}) // must not panic
	if _, err := c.ParseSource(NamedSource{Name: "x", Source: "definition(name: \"x\")\n"}); err != nil {
		t.Fatalf("nil cache ParseSource: %v", err)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				if an, ok := c.LookupAnalysis(key); ok && an == nil {
					t.Error("hit returned nil analysis")
					return
				}
				c.StoreAnalysis(key, &Analysis{Checked: []string{key}})
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("k%d", i)
		if an, ok := c.LookupAnalysis(key); !ok || an.Checked[0] != key {
			t.Fatalf("%s: lost or crossed entry", key)
		}
	}
}
