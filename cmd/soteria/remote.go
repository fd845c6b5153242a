package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/soteria-analysis/soteria/internal/api"
	"github.com/soteria-analysis/soteria/internal/client"
	"github.com/soteria-analysis/soteria/internal/report"
)

// runRemote submits the apps at paths to the soteriad instance at
// baseURL through the resilient client and renders the returned record
// with the same exit codes as a local run.
func runRemote(baseURL string, paths []string, req api.AnalyzeRequest, jsonOut bool) int {
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			fail("reading %s: %v", path, err)
		}
		req.Apps = append(req.Apps, api.App{Name: filepath.Base(path), Source: string(src)})
	}

	c, err := client.New(client.Config{BaseURL: baseURL})
	if err != nil {
		fail("%v", err)
	}
	ctx := context.Background()
	if ms := req.Options.TimeoutMS; ms > 0 {
		// The request deadline leaves headroom over the analysis budget
		// for queueing and transport.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond+30*time.Second)
		defer cancel()
	}

	j, err := c.Analyze(ctx, req)
	if err != nil {
		fail("remote analysis: %v", err)
	}
	if !j.Status.Terminal() {
		// A sync submission normally returns terminal; a poll handle can
		// still surface (e.g. the submitting connection broke and the
		// retry raced the job) — follow it.
		id := j.JobID
		if j, err = c.Wait(ctx, id); err != nil {
			fail("remote analysis: polling job %s: %v", id, err)
		}
	}
	if j.Status == api.StatusFailed || j.Result == nil {
		fail("remote analysis: job %s %s: %s", j.JobID, j.Status, j.Error)
	}
	if req.Timings {
		renderTiming(j.Result.Timing, j.Trace)
	}
	return renderRecord(j.Result, j.Cached, jsonOut)
}

// renderTiming prints the daemon-recorded span tree to stderr, with
// the trace ID operators can grep in the daemon's logs.
func renderTiming(t *report.Timing, trace string) {
	if t == nil || t.Span == nil {
		fmt.Fprintln(os.Stderr, "timing: not returned by the daemon (cached result from an older daemon?)")
		return
	}
	if trace == "" {
		trace = t.TraceID
	}
	fmt.Fprintf(os.Stderr, "timing (trace %s):\n", trace)
	var walk func(sp *report.TimedSpan, depth int)
	walk = func(sp *report.TimedSpan, depth int) {
		fmt.Fprintf(os.Stderr, "%*s%s %s", depth*2+2, "", sp.Name, time.Duration(sp.DurationUS)*time.Microsecond)
		for _, a := range sp.Attrs {
			fmt.Fprintf(os.Stderr, " %s=%s", a.Key, a.Value)
		}
		fmt.Fprintln(os.Stderr)
		for _, ch := range sp.Children {
			walk(ch, depth+1)
		}
	}
	walk(t.Span, 0)
}

// renderRecord prints a stored record and maps it to the documented
// exit codes (incomplete over violations, like a local run).
func renderRecord(rec *report.Record, cached bool, jsonOut bool) int {
	code := 0
	switch {
	case rec.Incomplete:
		code = 3
	case len(rec.Violations) > 0:
		code = 1
	}
	if jsonOut {
		data, err := report.Encode(rec)
		if err != nil {
			fail("json: %v", err)
		}
		var buf bytes.Buffer
		if err := json.Indent(&buf, data, "", "  "); err != nil {
			fail("json: %v", err)
		}
		fmt.Println(buf.String())
		return code
	}
	fmt.Printf("model: %d states (%d before reduction), %d transitions\n",
		rec.States, rec.StatesBeforeReduction, rec.Transitions)
	if cached {
		fmt.Println("served from the daemon's result store (cached)")
	}
	if len(rec.Violations) == 0 {
		fmt.Println("no property violations found")
	}
	for _, v := range rec.Violations {
		fmt.Printf("VIOLATION %s [%s]: %s\n  %s\n", v.ID, v.Kind, v.Description, v.Detail)
		// Taint witnesses render in full in the flow section below.
		if v.Counterexample != "" && v.Kind != "taint" {
			fmt.Printf("  counterexample: %s\n", v.Counterexample)
		}
	}
	for _, f := range rec.TaintFlows {
		fmt.Printf("TAINT FLOW %s [%s]: %s -> %s (%s channel, line %d)\n",
			f.ID, f.App, f.Source, f.Sink, f.Channel, f.Line)
		for _, step := range f.Witness {
			fmt.Printf("  %s\n", step)
		}
	}
	if rec.Incomplete {
		fmt.Println("ANALYSIS INCOMPLETE:")
		for _, d := range rec.Diagnostics {
			fmt.Printf("  %s: %s\n", d.Stage, d.Message)
		}
	}
	return code
}
