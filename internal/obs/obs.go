// Package obs is Soteria's zero-dependency telemetry layer: a span
// tracer recording a timing tree per analysis (parse → IR → state
// model → per-(property, engine) check), fixed-bucket latency
// histograms renderable in Prometheus exposition format, trace-ID
// helpers for request correlation, and an exposition-format validator
// used by tests and the smoke script.
//
// Everything here is built for a hot pipeline: a nil *Span is valid
// and every method on it is a no-op, so uninstrumented runs pay only a
// context lookup. Histograms are lock-free atomics.
package obs

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are strings;
// integer annotations are formatted in decimal (see Span.SetInt).
type Attr struct {
	Key string
	Val string
}

// Span is one timed node of a trace tree. Spans are created with
// NewRoot or StartChild, annotated with Set/SetInt, and closed with
// End. A nil *Span is valid: every method no-ops (returning zero
// values), which is how tracing-off runs stay nearly free.
//
// Children may be started and ended from concurrent goroutines; each
// span's own state is guarded by its mutex.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	ended    bool
	dur      time.Duration
	attrs    []Attr
	children []*Span
}

// NewRoot starts a new root span.
func NewRoot(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// StartChild starts a child span under s. Nil-safe: a nil parent
// returns a nil child.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End freezes the span's duration. The first call wins; later calls
// (and calls on nil) are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// Set annotates the span with a string attribute.
func (s *Span) Set(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.mu.Unlock()
}

// SetInt annotates the span with an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	s.Set(key, strconv.FormatInt(v, 10))
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the frozen duration for ended spans and the
// running duration otherwise (0 for nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Attrs returns a copy of the span's attributes in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attr, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Str looks up a string attribute; for repeated keys the last write
// wins.
func (s *Span) Str(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.attrs) - 1; i >= 0; i-- {
		if s.attrs[i].Key == key {
			return s.attrs[i].Val, true
		}
	}
	return "", false
}

// Int looks up an integer attribute (false when absent or
// non-numeric).
func (s *Span) Int(key string) (int64, bool) {
	v, ok := s.Str(key)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Children returns a copy of the span's children in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Walk visits the tree pre-order, passing each span's depth (0 for s).
func (s *Span) Walk(fn func(depth int, sp *Span)) {
	if s == nil {
		return
	}
	s.walk(0, fn)
}

func (s *Span) walk(depth int, fn func(int, *Span)) {
	fn(depth, s)
	for _, c := range s.Children() {
		c.walk(depth+1, fn)
	}
}

// Render formats the tree as an indented text block, one span per
// line: name, duration, then key=value attributes. It is the format
// printed by `soteria -explain-timing` and the daemon's slow-job log.
func (s *Span) Render() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.Walk(func(depth int, sp *Span) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(sp.Name())
		fmt.Fprintf(&b, " %s", sp.Duration().Round(time.Microsecond))
		for _, a := range sp.Attrs() {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Val)
		}
		b.WriteByte('\n')
	})
	return b.String()
}

// Shape renders the tree's structure without timings:
// "name(child1,child2(grand))", where each node is its name plus its
// "id" attribute when set (e.g. "property:P.9"). Two runs of the same
// input produce equal shapes when scheduling is deterministic; the
// determinism test relies on this.
func (s *Span) Shape() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.shape(&b)
	return b.String()
}

func (s *Span) shape(b *strings.Builder) {
	b.WriteString(sortKey(s))
	kids := s.Children()
	if len(kids) == 0 {
		return
	}
	b.WriteByte('(')
	for i, c := range kids {
		if i > 0 {
			b.WriteByte(',')
		}
		c.shape(b)
	}
	b.WriteByte(')')
}

// SortedShape is Shape with every sibling list sorted by name then by
// the "id" attribute — the scheduling-independent view used to compare
// trees produced under parallel sweeps.
func (s *Span) SortedShape() string {
	if s == nil {
		return ""
	}
	var render func(sp *Span) string
	render = func(sp *Span) string {
		kids := sp.Children()
		if len(kids) == 0 {
			return sortKey(sp)
		}
		parts := make([]string, len(kids))
		for i, c := range kids {
			parts[i] = render(c)
		}
		sort.Strings(parts)
		return sortKey(sp) + "(" + strings.Join(parts, ",") + ")"
	}
	return render(s)
}

func sortKey(sp *Span) string {
	if id, ok := sp.Str("id"); ok {
		return sp.Name() + ":" + id
	}
	return sp.Name()
}

// ---------------------------------------------------------------------------
// Context plumbing

type ctxKey struct{}

// WithSpan returns ctx carrying s as the current span. A nil span
// leaves ctx untouched.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the current span, or nil when ctx carries none.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start begins a child of the context's current span without rewrapping
// the context: successive Start calls on the same ctx create siblings.
// With no span in ctx it returns nil — the caller's End/Set calls
// no-op.
func Start(ctx context.Context, name string) *Span {
	return FromContext(ctx).StartChild(name)
}

// StartSpan begins a child of the context's current span and returns a
// context carrying the child, so downstream calls nest under it. With
// no span in ctx it returns (ctx, nil).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	c := FromContext(ctx).StartChild(name)
	if c == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, c), c
}
