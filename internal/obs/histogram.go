package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency histogram: log-spaced upper
// bounds in seconds, lock-free atomic counters, renderable in
// Prometheus text exposition format. A nil *Histogram ignores
// observations and snapshots to zero.
type Histogram struct {
	bounds []float64       // ascending upper bounds, seconds
	counts []atomic.Uint64 // len(bounds)+1; the last bucket is +Inf
	total  atomic.Uint64
	sumNS  atomic.Int64
}

// NewHistogram creates a histogram with the given ascending upper
// bounds (seconds). It panics on unsorted or empty bounds — bucket
// layouts are compile-time decisions.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be ascending")
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// DefaultLatencyBounds is the bucket layout shared by every latency
// histogram the daemon exports: 100µs doubling through ~52s (20
// buckets plus +Inf). Log-spacing keeps sub-millisecond property
// checks and multi-second market sweeps on the same scale.
func DefaultLatencyBounds() []float64 {
	bounds := make([]float64, 20)
	b := 100e-6
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	// First bound >= the duration in seconds; the overflow bucket is
	// len(bounds).
	i := sort.SearchFloat64s(h.bounds, d.Seconds())
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sumNS.Add(d.Nanoseconds())
}

// HistogramSnapshot is a consistent-enough point-in-time copy for
// rendering (individual counters are read atomically; a scrape racing
// an observation may be off by one observation, which Prometheus
// tolerates).
type HistogramSnapshot struct {
	Bounds     []float64 // upper bounds, seconds
	Counts     []uint64  // per-bucket counts, len(Bounds)+1, last is +Inf
	Count      uint64
	SumSeconds float64
}

// Snapshot copies the current counters (zero value for nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds:     append([]float64(nil), h.bounds...),
		Counts:     make([]uint64, len(h.counts)),
		Count:      h.total.Load(),
		SumSeconds: float64(h.sumNS.Load()) / 1e9,
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Series pairs a histogram with an optional label for rendering
// several series under one metric family (e.g. engine="bdd").
// Label=="" renders an unlabeled series.
type Series struct {
	Label string
	Value string
	H     *Histogram
}

// WriteHistogramProm renders one histogram family in Prometheus text
// exposition format 0.0.4: one HELP/TYPE pair, then per series the
// cumulative _bucket samples ending at le="+Inf", plus _sum and
// _count.
func WriteHistogramProm(w io.Writer, name, help string, series ...Series) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	for _, s := range series {
		snap := s.H.Snapshot()
		labelPrefix := ""
		bare := ""
		if s.Label != "" {
			labelPrefix = fmt.Sprintf("%s=%q,", s.Label, s.Value)
			bare = fmt.Sprintf("{%s=%q}", s.Label, s.Value)
		}
		var cum uint64
		for i, b := range snap.Bounds {
			cum += snap.Counts[i]
			fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labelPrefix, formatBound(b), cum)
		}
		if len(snap.Counts) > 0 {
			cum += snap.Counts[len(snap.Counts)-1]
		}
		fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labelPrefix, cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", name, bare, formatFloat(snap.SumSeconds))
		fmt.Fprintf(w, "%s_count%s %d\n", name, bare, snap.Count)
	}
}

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

func formatFloat(f float64) string {
	if math.IsInf(f, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
