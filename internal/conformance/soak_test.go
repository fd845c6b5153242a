package conformance

import (
	"math/rand"
	"testing"
)

// TestSoakNewKernelDifferential is the differential soak for the
// open-addressed BDD kernel: 200 seeded generated models run through
// the conformance oracle with the BDD engine enabled, so the explicit
// fixpoint and the symbolic engine must agree on the verdict and the
// full satisfaction set of every case.
func TestSoakNewKernelDifferential(t *testing.T) {
	const cases = 200
	rng := rand.New(rand.NewSource(0xB00))
	cfg := DefaultGenConfig()
	for i := 0; i < cases; i++ {
		c := GenCase(rng, cfg, i)
		if m := CheckCase(c, EngineSet{BDD: true}); m != nil {
			t.Fatalf("case %d: %v", i, m)
		}
	}
}
