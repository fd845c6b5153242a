package main

import (
	"bytes"
	"testing"

	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/market"
)

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	apps := market.All()
	a, b, other := newSequence(7, apps), newSequence(7, apps), newSequence(8, apps)
	differs := false
	for i := 0; i < 5000; i++ {
		ra, rb, ro := a.next(), b.next(), other.next()
		if ra != rb {
			t.Fatalf("request %d: %+v vs %+v under the same seed", i, ra, rb)
		}
		ba, err := a.body(ra.variant)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.body(rb.variant)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("request %d: bodies differ under the same seed", i)
		}
		if ro != ra {
			differs = true
		}
	}
	if !differs {
		t.Fatal("seeds 7 and 8 generated the same requests")
	}
}

func TestSequenceRepeatsOnlyCompletedVariants(t *testing.T) {
	s := newSequence(1, market.All())
	var created []int
	for i := 0; i < 20000; i++ {
		r := s.next()
		if r.index != i {
			t.Fatalf("request %d has index %d", i, r.index)
		}
		if r.fresh {
			if r.variant != len(created) {
				t.Fatalf("request %d: fresh variant %d, want %d", i, r.variant, len(created))
			}
			created = append(created, i)
			continue
		}
		if r.variant >= len(created) || created[r.variant] > i-repeatLag {
			t.Fatalf("request %d repeats variant %d created at request %d", i, r.variant, created[r.variant])
		}
	}
	if share := float64(len(created)) / 20000; share < 0.48 || share > 0.52 {
		t.Fatalf("fresh share %.3f, want about %.2f", share, freshShare)
	}
}

// A variant's comment gives it its own content key but leaves the
// analysis, and so the known answer, unchanged.
func TestVariantsAreNewKeysWithTheBaseVerdict(t *testing.T) {
	s := newSequence(3, market.All())
	keys := map[string]bool{}
	for n := 0; n < 40; {
		r := s.next()
		if !r.fresh {
			continue
		}
		n++
		src := s.source(r.variant)
		key := core.AnalysisKey(src, core.DefaultOptions())
		if keys[key] {
			t.Fatalf("variant %d reuses a content key", r.variant)
		}
		keys[key] = true
		base := s.app(r.variant)
		got, _, err := analyze(src)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := analyze([]core.NamedSource{{Name: base.Name, Source: base.Source}})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("variant %d of %s reports differently from its base app", r.variant, base.ID)
		}
	}
}
