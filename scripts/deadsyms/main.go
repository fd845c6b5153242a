// Command deadsyms reports exported identifiers declared under
// internal/ that nothing in the repository references by name. It
// parses every Go file below the root (tests and the separate
// benchmark module included) with go/parser and matches names, not
// types: an export counts as used when any identifier anywhere other
// than its own declaration spells its name. That is coarse — two
// unrelated declarations sharing a name keep each other alive — but it
// never flags a used symbol, so CI can fail on any output.
//
//	go run ./scripts/deadsyms [root]
//
// Two kinds of declaration are exempt: methods named after a standard
// library interface method (they are called through the interface,
// never by name) and a const block's iota zero value (it names the
// zero value, which code gets without spelling it).
//
// Output is one "file:line: pkg.Name" line per unreferenced symbol,
// sorted; the exit status is 1 when there is any.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// stdlibMethods are method names that satisfy standard library
// interfaces (error, fmt.Stringer, io.*, sort.Interface, heap,
// http.Handler/RoundTripper, json/text marshalers).
var stdlibMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"String": true, "GoString": true, "Format": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadAt": true, "WriteTo": true, "ReadFrom": true, "Sync": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "RoundTrip": true, "Header": true, "WriteHeader": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// decl is one exported top-level declaration under internal/.
type decl struct {
	pos   token.Position
	pkg   string
	ident string // the declared identifier
	name  string // "Name" or "Type.Method"
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	dead, err := scan(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadsyms:", err)
		os.Exit(2)
	}
	for _, d := range dead {
		fmt.Println(d)
	}
	if len(dead) > 0 {
		os.Exit(1)
	}
}

// scan parses every Go file below root and returns the unreferenced
// exports, formatted and sorted.
func scan(root string) ([]string, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	var decls []decl
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		rel, _ := filepath.Rel(root, path)
		if strings.HasPrefix(filepath.ToSlash(rel), "internal/") && !strings.HasSuffix(name, "_test.go") {
			decls = append(decls, exported(fset, f)...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Count every identifier occurrence by name, minus the tracked
	// declarations' own names.
	uses := map[string]int{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
	}
	for _, d := range decls {
		uses[d.ident]--
	}

	var out []string
	for _, d := range decls {
		if uses[d.ident] > 0 {
			continue
		}
		rel, _ := filepath.Rel(root, d.pos.Filename)
		out = append(out, fmt.Sprintf("%s:%d: %s.%s", filepath.ToSlash(rel), d.pos.Line, d.pkg, d.name))
	}
	sort.Strings(out)
	return out, nil
}

// exported lists a file's exported top-level declarations and methods,
// minus the exempt kinds.
func exported(fset *token.FileSet, f *ast.File) []decl {
	pkg := f.Name.Name
	var out []decl
	add := func(id *ast.Ident, name string) {
		if id.IsExported() {
			out = append(out, decl{pos: fset.Position(id.Pos()), pkg: pkg, ident: id.Name, name: name})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, d.Name.Name)
				continue
			}
			if stdlibMethods[d.Name.Name] {
				continue
			}
			add(d.Name, recvType(d.Recv.List[0].Type)+"."+d.Name.Name)
		case *ast.GenDecl:
			for i, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, s.Name.Name)
				case *ast.ValueSpec:
					if d.Tok == token.CONST && i == 0 && len(s.Values) == 1 && isIota(s.Values[0]) {
						continue
					}
					for _, id := range s.Names {
						add(id, id.Name)
					}
				}
			}
		}
	}
	return out
}

// isIota reports whether a const block's first value is iota itself,
// making its first name the zero value of the enumeration.
func isIota(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "iota"
}

// recvType names a method's receiver type, pointer or not.
func recvType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return "(*" + recvType(t.X) + ")"
	case *ast.IndexExpr:
		return recvType(t.X)
	case *ast.IndexListExpr:
		return recvType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}
