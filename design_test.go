package fbs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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

// walkGoFiles parses every .go file under the repo root and hands it to
// visit with its package directory ("fbs" for the root itself).
func walkGoFiles(t *testing.T, visit func(dir, path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." {
			dir = "fbs"
		}
		visit(dir, filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// censused reports whether a file is one the design rules apply to: a
// non-test file outside internal/refmodel (whose duplication is the
// point) and bench/ (its own module).
func censused(dir, path string) bool {
	return !strings.HasSuffix(path, "_test.go") && dir != "internal/refmodel" && dir != "bench" && !strings.HasPrefix(dir, "bench/")
}

// declKey names a function, or a method by its receiver type, the way the
// Seams table does.
func declKey(dir string, decl *ast.FuncDecl) string {
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
			return dir + "." + id.Name + "." + decl.Name.Name
		}
	}
	return dir + "." + decl.Name.Name
}

// takeSeamCensus reads every censused file.
func takeSeamCensus(t *testing.T) seamCensus {
	t.Helper()
	c := seamCensus{map[string]bool{}, map[string]bool{}, map[string]bool{}}
	type field struct{ key, typ string }
	var candidates []field         // *Config / *Options fields of a named type
	funcTypes := map[string]bool{} // "<dir>.<Name>" of named func types
	walkGoFiles(t, func(dir, path string, f *ast.File) {
		if !censused(dir, path) {
			return
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				c.declared[declKey(dir, decl)] = true
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
	})
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

// stdlibMethods are method names that satisfy a standard-library
// interface (json.Marshaler/Unmarshaler, sort and heap.Interface,
// cipher.AEAD): their reader is the library, which no walk of this tree
// can see.
var stdlibMethods = map[string]bool{
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"NonceSize": true, "Overhead": true,
}

// unreadExports are the exported names under internal/ that
// TestEveryExportHasAReader lets stand without a reader, each with the
// reason. The list is capped: a fourth entry means a subsystem, and a
// subsystem needs a reader.
var unreadExports = map[string]string{
	"internal/core.KeyService.Pin":                     "§5.3 \"pin certain certificates in the cache upon initialization\", one line",
	"internal/ip.Stack.ServeEcho":                      "footnote 10's portless-protocol (ICMP) case of the §7 IP mapping; TestPingThroughFBS pings through it",
	"internal/transport.UDPTransport.SetPortableBatch": "test seam (DESIGN.md Seams): runs the portable batch loop on a platform that has mmsg",
}

// TestEveryExportHasAReader holds the second census's rule: an exported
// func, method or type declared in a non-test file under internal/ stays
// only if some Go file other than a _test.go file of its own package
// names it — a binary, an example, the root package, another package,
// another package's tests, bench/gwbench. Matching is by identifier, so
// the rule is a floor: it cannot tell two methods of one name apart, but
// a name nothing else spells is unread for certain.
func TestEveryExportHasAReader(t *testing.T) {
	type export struct{ dir, name string }
	exports := map[string]export{}  // key -> where it is declared
	named := map[string]int{}       // identifier -> uses anywhere, declarations excluded
	ownTests := map[[2]string]int{} // {dir, identifier} -> uses in that dir's _test.go files
	walkGoFiles(t, func(dir, path string, f *ast.File) {
		inScope := censused(dir, path) && strings.HasPrefix(dir, "internal/")
		declares := map[*ast.Ident]bool{} // identifiers that declare rather than use
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				declares[decl.Name] = true
				if decl.Recv != nil {
					// A method's receiver spells its type without reading it.
					ast.Inspect(decl.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							declares[id] = true
						}
						return true
					})
				}
				if inScope && decl.Name.IsExported() && !(decl.Recv != nil && stdlibMethods[decl.Name.Name]) {
					exports[declKey(dir, decl)] = export{dir, decl.Name.Name}
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						declares[ts.Name] = true
						if inScope && ts.Name.IsExported() {
							exports[dir+"."+ts.Name.Name] = export{dir, ts.Name.Name}
						}
					}
				}
			}
		}
		test := strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declares[id] {
				named[id.Name]++
				if test {
					ownTests[[2]string{dir, id.Name}]++
				}
			}
			return true
		})
	})
	var unread []string
	for key, e := range exports {
		if named[e.name] == ownTests[[2]string{e.dir, e.name}] {
			unread = append(unread, key)
		}
	}
	sort.Strings(unread)
	for _, key := range unread {
		if unreadExports[key] == "" {
			t.Errorf("%s is exported and only its own package's tests name it: give it a reader, unexport it, or delete it with what serves it", key)
		}
	}
	for key := range unreadExports {
		if !slices.Contains(unread, key) {
			t.Errorf("unreadExports lists %s, which has a reader now or is gone; delete the entry", key)
		}
	}
	if len(unreadExports) > 3 {
		t.Errorf("unreadExports has %d entries; the cap is 3", len(unreadExports))
	}
	t.Logf("%d exported funcs, methods and types under internal/; %d unread, %d of them allowed", len(exports), len(unread), len(unreadExports))
}

// TestDesignPathsExist holds the prose to the tree: every backticked
// internal/…, cmd/…, examples/… or docs/… path in DESIGN.md, README.md
// and docs/*.md must exist. A token may continue past the path — flags
// after a space, or the Seams table's ".Name" after a package directory —
// so what must exist is the token up to its first space, whole or cut at
// the first dot of its last segment.
func TestDesignPathsExist(t *testing.T) {
	files, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	token := regexp.MustCompile("`((?:internal|cmd|examples|docs)/[^`]*)`")
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	for _, file := range append(files, "DESIGN.md", "README.md") {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range token.FindAllStringSubmatch(string(text), -1) {
			path, _, _ := strings.Cut(m[1], " ")
			dir, last := filepath.Split(path)
			pkg, _, _ := strings.Cut(last, ".")
			if !exists(path) && !exists(dir+pkg) {
				t.Errorf("%s names `%s`, which is not in the tree", file, m[1])
			}
		}
	}
}

// doorPrefixes are the verbs of Endpoint's datagram entry points.
var doorPrefixes = []string{"Seal", "Open", "Send", "Receive"}

// TestEntryPointTable holds the fourth census's rule: DESIGN.md's
// entry-point table lists exactly the exported Seal*, Open*, Send* and
// Receive* methods of *core.Endpoint, both ways. A door cannot be added
// without a row that names its callers, and a row cannot outlive its
// door.
func TestEntryPointTable(t *testing.T) {
	doors := map[string]bool{}
	walkGoFiles(t, func(dir, path string, f *ast.File) {
		if dir != "internal/core" || !censused(dir, path) {
			return
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			if id, ok := star.X.(*ast.Ident); !ok || id.Name != "Endpoint" {
				continue
			}
			for _, p := range doorPrefixes {
				if strings.HasPrefix(fd.Name.Name, p) {
					doors[fd.Name.Name] = true
				}
			}
		}
	})
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n| Entry point | Non-test callers |\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"| Entry point | Non-test callers |\" table")
	}
	if i := strings.Index(table, "\n\n"); i >= 0 {
		table = table[:i]
	}
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(table, -1) {
		if rows[m[1]] {
			t.Errorf("DESIGN.md's entry-point table lists %s twice", m[1])
		}
		rows[m[1]] = true
	}
	for door := range doors {
		if !rows[door] {
			t.Errorf("(*core.Endpoint).%s is a datagram entry point but DESIGN.md's entry-point table has no row for it: name its callers there, or fold it into a door that exists", door)
		}
	}
	for row := range rows {
		if !doors[row] {
			t.Errorf("DESIGN.md's entry-point table lists %s, which is not an exported Seal*/Open*/Send*/Receive* method of *core.Endpoint; delete the row", row)
		}
	}
	t.Logf("%d entry points; %d rows", len(doors), len(rows))
}

// unsetKnobs are the internal/core configuration values that
// TestEveryKnobHasASetter lets stand without a setter outside
// internal/core, each with the reason. The list is capped at 2: a knob
// nothing sets is a constant with extra steps.
var unsetKnobs = map[string]string{
	"internal/core.Config.Confounder": "netsim/diff.go seeds the endpoint and internal/refmodel with the same confounders so RunDiff can compare their wire bytes; the reference comparison stays",
}

// TestEveryKnobHasASetter holds the third census's rule: an exported
// non-func field of an exported internal/core struct named *Config or
// *Policy stays only if some non-test file outside internal/core,
// internal/refmodel, cmd/fbsbench, internal/netsim, cmd/fbschaos and
// examples/ sets it — a `Key:` in a composite literal or a `.Key =`
// assignment. fbsbench does not count: an instrument that sets a value to
// measure it is not a caller that needs it. Nor do the soak harnesses,
// netsim and fbschaos: a harness sets a value in order to exercise it. Matching is by identifier, as in the export census, sharpened by
// the literal's type where the literal names it; so the rule is a floor:
// a field nothing outside internal/core ever sets is a knob no caller
// turns, and it becomes a constant or goes with the behaviour it gates.
func TestEveryKnobHasASetter(t *testing.T) {
	type field struct {
		typ, name string   // the struct type and the field
		expr      ast.Expr // the field's type
	}
	var fields []field             // exported fields of internal/core's *Config / *Policy structs
	funcTypes := map[string]bool{} // named func types of internal/core
	// set holds "Type.Key" for a key of a literal that names its struct
	// type, and "*.Key" for one whose type is elided and for a .Key =
	// assignment, whose receiver's type the syntax does not show.
	set := map[string]bool{}
	walkGoFiles(t, func(dir, path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		if dir != "internal/core" {
			if dir == "internal/refmodel" || dir == "cmd/fbsbench" || dir == "internal/netsim" || dir == "cmd/fbschaos" || dir == "examples" || strings.HasPrefix(dir, "examples/") {
				// The reference model sets only its own restatement, an
				// instrument sets a value to measure it and a soak harness
				// to exercise it, not because either needs it.
				return
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := "*"
					switch lt := n.Type.(type) {
					case *ast.Ident:
						typ = lt.Name
					case *ast.SelectorExpr:
						typ = lt.Sel.Name
					}
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								set[typ+"."+id.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							set["*."+sel.Sel.Name] = true
						}
					}
				}
				return true
			})
			return
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if _, ok := ts.Type.(*ast.FuncType); ok {
					funcTypes[ts.Name.Name] = true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Policy")) {
					continue
				}
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						if name.IsExported() {
							fields = append(fields, field{ts.Name.Name, name.Name, fld.Type})
						}
					}
				}
			}
		}
	})
	knobs := 0
	var unset []string
	for _, f := range fields {
		if _, ok := f.expr.(*ast.FuncType); ok {
			continue // a seam, censused by TestSeamTableMatchesCode
		}
		if id, ok := f.expr.(*ast.Ident); ok && funcTypes[id.Name] {
			continue
		}
		knobs++
		if !set[f.typ+"."+f.name] && !set["*."+f.name] {
			unset = append(unset, "internal/core."+f.typ+"."+f.name)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		if unsetKnobs[key] == "" {
			t.Errorf("%s is a configuration value nothing outside internal/core sets: make it a constant at its default, or delete it with the behaviour it gates", key)
		}
	}
	for key := range unsetKnobs {
		if !slices.Contains(unset, key) {
			t.Errorf("unsetKnobs lists %s, which has a setter now or is gone; delete the entry", key)
		}
	}
	if len(unsetKnobs) > 2 {
		t.Errorf("unsetKnobs has %d entries; the cap is 2", len(unsetKnobs))
	}
	t.Logf("%d settable values in internal/core's *Config/*Policy structs; %d unset, %d of them allowed", knobs, len(unset), len(unsetKnobs))
}

// ruleless are the internal/core capacities TestEveryCapacityHasARule
// lets stand without a rule, each with the reason. The cap is 1.
var ruleless = map[string]string{"batchChunk": "sizes the batch engine's stack scratch; it is at least the 32-frame socket batch (transport's mmsgMaxBatch, the gateway's maxBatch) so a received batch is one chunk, but no test spans that package boundary yet"}

// capacityName picks out the constants that size a table, cache, ring
// or map, by the words internal/core names them with.
var capacityName = regexp.MustCompile(`(Size|Cap|Burst|Chunk|Rows|Cols|Every)$`)

// TestEveryCapacityHasARule holds the fifth census's rule: a
// package-level integer constant of internal/core that sizes a table,
// cache, ring or map says where its value comes from. Its doc comment
// (its own, or its const block's) cites a paper section, figure or
// footnote, or an EXPERIMENTS.md row, or names a test that asserts a
// relation to another constant; or its value is derived from another
// capacity, which makes the relation a definition.
func TestEveryCapacityHasARule(t *testing.T) {
	type capacity struct {
		name, doc string
		derived   bool
	}
	var caps []capacity
	tests := map[string]bool{}
	walkGoFiles(t, func(dir, path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test") {
					tests[fd.Name.Name] = true
				}
			}
			return
		}
		if dir != "internal/core" {
			return
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				doc := vs.Doc
				if doc == nil {
					doc = gd.Doc
				}
				for i, name := range vs.Names {
					if vs.Type != nil || i >= len(vs.Values) || !capacityName.MatchString(name.Name) {
						continue
					}
					c := capacity{name: name.Name, doc: doc.Text()}
					ast.Inspect(vs.Values[i], func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && capacityName.MatchString(id.Name) {
							c.derived = true
						}
						return true
					})
					caps = append(caps, c)
				}
			}
		}
	})
	cites := regexp.MustCompile(`Section \d|§\d|Figure \d|footnote \d|EXPERIMENTS\.md`)
	testName := regexp.MustCompile(`\bTest[A-Z]\w*`)
	var without []string
	for _, c := range caps {
		ruled := c.derived || cites.MatchString(c.doc)
		for _, name := range testName.FindAllString(c.doc, -1) {
			ruled = ruled || tests[name]
		}
		if ruled {
			continue
		}
		without = append(without, c.name)
		if ruleless[c.name] == "" {
			t.Errorf("internal/core.%s sizes something but its doc comment states no rule: cite a paper section or an EXPERIMENTS.md row, name the test that asserts its relation to another constant, or derive it from one", c.name)
		}
	}
	for name := range ruleless {
		if !slices.Contains(without, name) {
			t.Errorf("ruleless lists %s, which states a rule now or is gone; delete the entry", name)
		}
	}
	if len(ruleless) > 1 {
		t.Errorf("ruleless has %d entries; the cap is 1", len(ruleless))
	}
	if len(caps) < 10 {
		t.Errorf("the census found %d capacities in internal/core; the ten it was written over are gone or renamed", len(caps))
	}
	t.Logf("%d capacities in internal/core; %d without a rule, %d of them allowed", len(caps), len(without), len(ruleless))
}
