package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"

	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/market"
)

// freshShare is the probability that a soteriad-mixed request is a
// fresh variant (a cache miss); the rest repeat an earlier variant.
const freshShare = 0.5

// repeatLag keeps a repeat off the variant created by the request just
// before it: with two clients in a closed loop, when request i is taken
// every earlier request but at most one has completed, and that one is
// most often i-1. A client still waits for the variant's miss to finish
// before sending the repeat, so no repeat reaches the daemon first.
const repeatLag = 2

// request is one generated soteriad-mixed request.
type request struct {
	index   int
	variant int
	fresh   bool
}

// sequence generates the soteriad-mixed requests from a seed. Request i
// depends only on the seed and i, never on timing: a fresh request adds
// a variant (a market app plus a comment naming the variant, so a new
// content key); a repeat draws uniformly over the variants created at
// least repeatLag requests earlier.
type sequence struct {
	seed    uint64
	rng     *rand.Rand
	apps    []market.AppSpec
	n       int
	created []int // index of the request that created each variant (ascending)
	base    []int // market app of each variant
}

func newSequence(seed uint64, apps []market.AppSpec) *sequence {
	return &sequence{seed: seed, rng: rand.New(rand.NewPCG(seed, 0x6d697865)), apps: apps}
}

func (s *sequence) next() request {
	i := s.n
	s.n++
	eligible := sort.SearchInts(s.created, i-repeatLag+1)
	if eligible == 0 || s.rng.Float64() < freshShare {
		v := len(s.created)
		s.created = append(s.created, i)
		s.base = append(s.base, s.rng.IntN(len(s.apps)))
		return request{index: i, variant: v, fresh: true}
	}
	return request{index: i, variant: s.rng.IntN(eligible)}
}

// app is the market app variant v was made from.
func (s *sequence) app(v int) market.AppSpec { return s.apps[s.base[v]] }

// source is variant v's app. The trailing comment changes the content
// key but not the analysis.
func (s *sequence) source(v int) []core.NamedSource {
	a := s.app(v)
	return []core.NamedSource{{Name: a.Name, Source: a.Source + fmt.Sprintf("\n// benchmark variant %d of seed %d\n", v, s.seed)}}
}

// body is the POST /v1/analyze body of variant v.
func (s *sequence) body(v int) ([]byte, error) {
	src := s.source(v)[0]
	return json.Marshal(struct {
		Name   string `json:"name"`
		Source string `json:"source"`
	}{src.Name, src.Source})
}
