package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestScan covers what counts as a reference (any file, tests and
// non-internal code included), what is tracked (internal/ non-test
// exports only), and the two exemptions.
func TestScan(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/lib/lib.go": `package lib

type Kind int

const (
	Zero Kind = iota
	One
	Two
)

type T struct{}

func (T) Error() string  { return "" }
func (T) Used()          {}
func (*T) Unused()       {}
func Exported()          {}
func UsedByTest()        {}
func UsedByCommand()     {}
func unexported()        {}
var DeadVar, LiveVar = 1, 2
`,
		"internal/lib/lib_test.go": `package lib

import "testing"

func TestX(t *testing.T) { UsedByTest(); T{}.Used(); _ = One }

func HelperOnlyInTests() {}
`,
		"cmd/tool/main.go": `package main

import "example/internal/lib"

func main() { lib.UsedByCommand(); _ = lib.LiveVar + int(lib.Two) }
`,
		"testdata/skip/skip.go": `package skip

func Ignored() { lib.Exported() }
`,
	})
	got, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib/lib.go:15: lib.(*T).Unused",
		"internal/lib/lib.go:16: lib.Exported",
		"internal/lib/lib.go:20: lib.DeadVar",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q\nwant %q", got, want)
	}
}
