package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	s.End()
	s.Set("k", "v")
	s.SetInt("n", 1)
	if c := s.StartChild("c"); c != nil {
		t.Fatalf("nil span produced non-nil child")
	}
	if s.Name() != "" || s.Duration() != 0 || s.Render() != "" || s.Shape() != "" {
		t.Fatalf("nil span accessors not zero")
	}
	if _, ok := s.Str("k"); ok {
		t.Fatalf("nil span Str hit")
	}
	s.Walk(func(int, *Span) { t.Fatalf("nil span walked") })
}

func TestSpanTreeAndAttrs(t *testing.T) {
	root := NewRoot("job")
	item := root.StartChild("item")
	item.Set("key", "alarm")
	ir := item.StartChild("ir")
	ir.SetInt("apps", 2)
	ir.End()
	check := item.StartChild("check")
	check.End()
	item.End()
	root.End()

	if got := root.Shape(); got != "job(item(ir,check))" {
		t.Fatalf("shape = %q", got)
	}
	if n, ok := ir.Int("apps"); !ok || n != 2 {
		t.Fatalf("Int(apps) = %d, %v", n, ok)
	}
	if v, ok := item.Str("key"); !ok || v != "alarm" {
		t.Fatalf("Str(key) = %q, %v", v, ok)
	}
	r := root.Render()
	for _, want := range []string{"job ", "\n  item ", "key=alarm", "\n    ir ", "apps=2"} {
		if !strings.Contains(r, want) {
			t.Fatalf("render missing %q:\n%s", want, r)
		}
	}
	var names []string
	root.Walk(func(depth int, sp *Span) { names = append(names, sp.Name()) })
	if strings.Join(names, ",") != "job,item,ir,check" {
		t.Fatalf("walk order = %v", names)
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	s := NewRoot("x")
	s.End()
	d := s.Duration()
	time.Sleep(2 * time.Millisecond)
	s.End()
	if s.Duration() != d {
		t.Fatalf("second End changed duration")
	}
}

func TestSortedShapeIgnoresSiblingOrder(t *testing.T) {
	mk := func(order []string) *Span {
		root := NewRoot("check")
		for _, id := range order {
			p := root.StartChild("property")
			p.Set("id", id)
			p.StartChild("engine").End()
			p.End()
		}
		root.End()
		return root
	}
	a := mk([]string{"P.1", "P.2", "P.3"})
	b := mk([]string{"P.3", "P.1", "P.2"})
	if a.SortedShape() != b.SortedShape() {
		t.Fatalf("sorted shapes differ:\n%s\n%s", a.SortedShape(), b.SortedShape())
	}
	if a.Shape() == b.Shape() {
		t.Fatalf("plain shapes unexpectedly equal despite different order")
	}
}

func TestConcurrentChildren(t *testing.T) {
	root := NewRoot("job")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.StartChild("p")
			c.SetInt("n", 1)
			c.End()
		}()
	}
	wg.Wait()
	root.End()
	if got := len(root.Children()); got != 32 {
		t.Fatalf("children = %d, want 32", got)
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatalf("empty ctx carried a span")
	}
	if sp := Start(ctx, "x"); sp != nil {
		t.Fatalf("Start on spanless ctx returned non-nil")
	}
	ctx2, sp := StartSpan(ctx, "x")
	if ctx2 != ctx || sp != nil {
		t.Fatalf("StartSpan on spanless ctx should be identity")
	}

	root := NewRoot("job")
	ctx = WithSpan(ctx, root)
	if FromContext(ctx) != root {
		t.Fatalf("FromContext != root")
	}
	a := Start(ctx, "a")
	b := Start(ctx, "b")
	a.End()
	b.End()
	ctx3, c := StartSpan(ctx, "c")
	if FromContext(ctx3) != c {
		t.Fatalf("StartSpan did not rewrap ctx")
	}
	d := Start(ctx3, "d")
	d.End()
	c.End()
	root.End()
	if got := root.Shape(); got != "job(a,b,c(d))" {
		t.Fatalf("shape = %q", got)
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // le=0.001 inclusive → bucket 0
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(time.Second)            // +Inf
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	want := []uint64{2, 1, 0, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.SumSeconds < 1.0065 || s.SumSeconds > 1.0066 {
		t.Fatalf("sum = %v", s.SumSeconds)
	}
	var nilH *Histogram
	nilH.Observe(time.Second) // must not panic
	if nilH.Snapshot().Count != 0 {
		t.Fatalf("nil histogram counted")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefaultLatencyBounds())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(time.Duration(n*j) * time.Microsecond)
			}
		}(i)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestWriteHistogramPromIsValid(t *testing.T) {
	h1 := NewHistogram([]float64{0.001, 0.01})
	h1.Observe(2 * time.Millisecond)
	h2 := NewHistogram([]float64{0.001, 0.01})
	var buf bytes.Buffer
	WriteHistogramProm(&buf, "soteriad_test_seconds", "test latency",
		Series{Label: "engine", Value: "explicit", H: h1},
		Series{Label: "engine", Value: "bdd", H: h2},
	)
	out := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("rendered histogram fails validation: %v\n%s", err, out)
	}
	for _, want := range []string{
		`soteriad_test_seconds_bucket{engine="explicit",le="0.001"} 0`,
		`soteriad_test_seconds_bucket{engine="explicit",le="+Inf"} 1`,
		`soteriad_test_seconds_count{engine="explicit"} 1`,
		`soteriad_test_seconds_bucket{engine="bdd",le="+Inf"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTraceIDs(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatalf("trace IDs collided")
	}
	if len(a) != 32 || !ValidTraceID(a) {
		t.Fatalf("generated ID invalid: %q", a)
	}
	for _, bad := range []string{"", "short", strings.Repeat("a", 65), "has space", "semi;colon", "new\nline"} {
		if ValidTraceID(bad) {
			t.Fatalf("ValidTraceID(%q) = true", bad)
		}
	}
	for _, good := range []string{"abcd1234", "ik-Style_Trace-01"} {
		if !ValidTraceID(good) {
			t.Fatalf("ValidTraceID(%q) = false", good)
		}
	}
}
