package conformance

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/maliot"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/report"
	"github.com/soteria-analysis/soteria/internal/smv"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// TestModelDigests is the byte-identity gate for state-model
// extraction. testdata/models.golden holds, per environment, the
// sha256 of the report bytes, the SMV module, the Graphviz rendering
// and the rendered nondeterminism list. It was generated once from the
// string-keyed extractor and is never regenerated: an extraction
// change that alters any of these bytes is a regression, not a golden
// update.
//
// Environments: the paper apps, every MalIoT app alone or as its
// cluster, the 65 market apps, and every candidate group (G.1–G.3 and
// the clean bundles). Groups are also built structurally with
// statemodel.Union ("union:" lines, no report), and single market apps
// are also built with event-only labels ("eventonly:" lines), so all
// three extraction entry points are pinned.
func TestModelDigests(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "models.golden"))
	if err != nil {
		t.Fatalf("golden file missing: %v", err)
	}
	wantLines := map[string]string{}
	var order []string
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		name, _, _ := strings.Cut(l, " ")
		wantLines[name] = l
		order = append(order, name)
	}
	got := map[string]bool{}
	modelDigests(t, func(line string) {
		name, _, _ := strings.Cut(line, " ")
		got[name] = true
		w, ok := wantLines[name]
		if !ok {
			t.Errorf("%s: not in the golden file", name)
			return
		}
		if w != line {
			t.Errorf("%s diverges:\n  got:  %s\n  want: %s", name, line, w)
		}
	})
	for _, name := range order {
		if !got[name] {
			t.Errorf("%s: in the golden file but not computed", name)
		}
	}
}

// modelDigests computes one digest line per environment and passes it
// to emit.
func modelDigests(t *testing.T, emit func(string)) {
	t.Helper()
	analyze := func(name string, srcs ...core.NamedSource) {
		an, err := core.AnalyzeSources(core.DefaultOptions(), srcs...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if an.Incomplete {
			t.Fatalf("%s: analysis incomplete", name)
		}
		rep, err := report.Encode(report.FromAnalysis(an))
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		emit(digestLine(name, string(rep), an.SMV(), an.Model))
	}
	build := func(name string, opt statemodel.Options, srcs ...core.NamedSource) []*statemodel.Model {
		var models []*statemodel.Model
		for _, s := range srcs {
			app, err := ir.BuildSource(s.Name, s.Source)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			m, err := statemodel.BuildOpt(opt, app)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			models = append(models, m)
		}
		return models
	}

	for _, a := range paperapps.Corpus() {
		analyze("paper:"+a.Name, core.NamedSource{Name: a.Name, Source: a.Source})
	}
	clusters := map[string][]core.NamedSource{}
	var clusterOrder []string
	for _, a := range maliot.Suite() {
		src := core.NamedSource{Name: a.Name, Source: a.Source}
		if a.Cluster == "" {
			analyze("maliot:"+a.ID, src)
			continue
		}
		if clusters[a.Cluster] == nil {
			clusterOrder = append(clusterOrder, a.Cluster)
		}
		clusters[a.Cluster] = append(clusters[a.Cluster], src)
	}
	for _, c := range clusterOrder {
		analyze("maliot-cluster:"+c, clusters[c]...)
	}
	for _, a := range market.All() {
		src := core.NamedSource{Name: a.Name, Source: a.Source}
		analyze("market:"+a.ID, src)
		m := build(a.ID, statemodel.Options{EventOnlyLabels: true}, src)[0]
		emit(digestLine("eventonly:"+a.ID, "", smv.Emit(m, nil), m))
	}
	for _, g := range market.CandidateGroups() {
		var srcs []core.NamedSource
		for _, id := range g.Members {
			a, ok := market.ByID(id)
			if !ok {
				t.Fatalf("%s: member %s not in the corpus", g.ID, id)
			}
			srcs = append(srcs, core.NamedSource{Name: a.Name, Source: a.Source})
		}
		analyze("group:"+g.ID, srcs...)
		u, err := statemodel.Union(build(g.ID, statemodel.Options{}, srcs...)...)
		if err != nil {
			// Members that abstract a shared numeric attribute
			// differently cannot be unioned structurally; the error is
			// pinned too.
			emit("union:" + g.ID + " error=" + sum(err.Error()))
			continue
		}
		emit(digestLine("union:"+g.ID, "", smv.Emit(u, nil), u))
	}
}

// digestLine renders "<name> report=… smv=… dot=… nondet=…"; an empty
// report renders as "-".
func digestLine(name, rep, smvText string, m *statemodel.Model) string {
	var nd strings.Builder
	for _, r := range m.Nondet {
		fmt.Fprintf(&nd, "%d|%s|%s|%d|%d|%d|%d|%d|%s|%s\n",
			r.State, r.Event.VarKey, r.Event.Value, r.Event.Kind, r.ToA, r.ToB,
			r.AppA, r.AppB, r.GuardA.String(), r.GuardB.String())
	}
	repSum := "-"
	if rep != "" {
		repSum = sum(rep)
	}
	return fmt.Sprintf("%s report=%s smv=%s dot=%s nondet=%s states=%d transitions=%d nondets=%d",
		name, repSum, sum(smvText), sum(m.Dot()), sum(nd.String()),
		len(m.States), len(m.Transitions), len(m.Nondet))
}

func sum(s string) string {
	h := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", h[:])
}
