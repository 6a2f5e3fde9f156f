package fbs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// seamCensus is what the code declares, keyed the way DESIGN.md's Seams
// table names things: "<dir>.<Name>" for a type or function and
// "<dir>.<Type>.<Member>" for a field or method, <dir> being the package
// directory relative to the repo root ("fbs" for the root itself).
type seamCensus struct {
	interfaces map[string]bool // every declared interface type
	funcFields map[string]bool // func-typed fields of *Config / *Options structs
	declared   map[string]bool // every type, function, method and struct field
}

// takeSeamCensus parses every non-test .go file outside internal/refmodel
// (whose duplication is the point) and bench/ (its own module).
func takeSeamCensus(t *testing.T) seamCensus {
	t.Helper()
	c := seamCensus{map[string]bool{}, map[string]bool{}, map[string]bool{}}
	type field struct{ key, typ string }
	var candidates []field         // *Config / *Options fields of a named type
	funcTypes := map[string]bool{} // "<dir>.<Name>" of named func types
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == filepath.Join("internal", "refmodel") || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." {
			dir = "fbs"
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				key := dir + "." + decl.Name.Name
				if decl.Recv != nil && len(decl.Recv.List) == 1 {
					recv := decl.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if idx, ok := recv.(*ast.IndexListExpr); ok {
						recv = idx.X
					}
					if idx, ok := recv.(*ast.IndexExpr); ok {
						recv = idx.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						key = dir + "." + id.Name + "." + decl.Name.Name
					}
				}
				c.declared[key] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					key := dir + "." + ts.Name.Name
					c.declared[key] = true
					switch typ := ts.Type.(type) {
					case *ast.InterfaceType:
						c.interfaces[key] = true
					case *ast.FuncType:
						funcTypes[key] = true
					case *ast.StructType:
						seamStruct := strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")
						for _, fld := range typ.Fields.List {
							for _, name := range fld.Names {
								fkey := key + "." + name.Name
								c.declared[fkey] = true
								if !seamStruct {
									continue
								}
								switch ft := fld.Type.(type) {
								case *ast.FuncType:
									c.funcFields[fkey] = true
								case *ast.Ident:
									candidates = append(candidates, field{fkey, dir + "." + ft.Name})
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range candidates {
		if funcTypes[f.typ] {
			c.funcFields[f.key] = true
		}
	}
	return c
}

// seamRows returns the Seams table of DESIGN.md as key -> kind.
func seamRows(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n### Seams\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"### Seams\" section")
	}
	if i := strings.Index(section, "\n##"); i >= 0 {
		section = section[:i]
	}
	row := regexp.MustCompile("(?m)^\\| `([^`]+)` \\| ([a-z ]+) \\|")
	rows := map[string]string{}
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		if _, dup := rows[m[1]]; dup {
			t.Errorf("DESIGN.md Seams table lists %s twice", m[1])
		}
		rows[m[1]] = m[2]
	}
	return rows
}

// TestSeamTableMatchesCode holds the Seams table in DESIGN.md §3 to the
// code, both ways: an interface (or a func-typed field of a *Config or
// *Options struct) cannot be declared without a row that names who plugs
// into it, and a row cannot outlive what it describes.
func TestSeamTableMatchesCode(t *testing.T) {
	census := takeSeamCensus(t)
	rows := seamRows(t)
	missing := func(kind string, want map[string]bool) {
		var keys []string
		for k := range want {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if rows[k] != kind {
				t.Errorf("%s %s is declared but DESIGN.md's Seams table has no `%s` | %s row: name its production implementations and test doubles there, or do not add it", kind, k, k, kind)
			}
		}
	}
	missing("interface", census.interfaces)
	missing("func field", census.funcFields)
	for key, kind := range rows {
		switch {
		case kind == "interface" && !census.interfaces[key]:
			t.Errorf("Seams table row %s: no such interface is declared any more; delete the row", key)
		case kind == "func field" && !census.funcFields[key]:
			t.Errorf("Seams table row %s: no such func-typed Config/Options field is declared any more; delete the row", key)
		case !census.declared[key]:
			t.Errorf("Seams table row %s (%s): nothing of that name is declared any more; delete the row", key, kind)
		}
	}
	t.Logf("%d interfaces and %d func-typed Config/Options fields declared; %d rows", len(census.interfaces), len(census.funcFields), len(rows))
}
