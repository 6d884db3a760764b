package st4ml

// The surface budget: every exported name declared under internal/ either
// has a production caller or is listed, with a citation, in
// testdata/surface.txt. A caller is any reference from a non-test file of
// internal/, cmd/, examples/, benchmark/ (a separate module, but a
// production caller all the same) or this root package. The scan errs
// towards "used": a name it cannot resolve precisely counts as used, so a
// failure always names a declaration nothing reaches.

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const (
	surfaceModule    = "st4ml/internal/"
	surfaceAllowlist = "testdata/surface.txt"
)

// surfaceCitation is what an allowlist entry must cite: a paper section
// (§3.2.1), table (Table 3) or figure (Fig. 3), or the interface a method
// satisfies, written as its package-qualified name (sort.Interface,
// errors.Unwrap).
var surfaceCitation = regexp.MustCompile(`§\d|Table \d|Fig\. ?\d|\b[a-z]+\.[A-Z]\w*`)

// surfaceScan is what one pass over the production files finds.
type surfaceScan struct {
	declared map[string]token.Position // "pkg.Name" or "pkg.Type.Method"
	used     map[string]bool           // "pkg.Name" referenced, or "." + method name selected
}

// productionFiles parses every non-test .go file under the given roots,
// by directory, skipping testdata and hidden directories.
func productionFiles(t *testing.T, fset *token.FileSet, roots ...string) map[string][]*ast.File {
	t.Helper()
	byDir := map[string][]*ast.File{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				// benchmark/out holds the benchmark's build cache and stores.
				if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || path == filepath.Join("benchmark", "out")) {
					return filepath.SkipDir
				}
				if root == "." && path != root {
					return filepath.SkipDir // the root package only; the other roots are walked on their own
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
			byDir[filepath.Dir(path)] = append(byDir[filepath.Dir(path)], f)
			return nil
		})
		if err != nil {
			t.Fatalf("scanning %s: %v", root, err)
		}
	}
	return byDir
}

// receiverType is the name of a method receiver's base type: T, *T, T[K]
// and *T[K] all give T.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// scanSurface parses the production files once and records what they
// declare under internal/ and what they reference.
func scanSurface(t *testing.T) surfaceScan {
	t.Helper()
	fset := token.NewFileSet()
	byDir := productionFiles(t, fset, "internal", "cmd", "examples", "benchmark", ".")
	s := surfaceScan{declared: map[string]token.Position{}, used: map[string]bool{}}

	for dir, files := range byDir {
		pkg := ""
		if strings.HasPrefix(filepath.ToSlash(dir), "internal/") {
			pkg = strings.TrimPrefix(filepath.ToSlash(dir), "internal/")
		}
		// Declaration identifiers are not references to themselves.
		decl := map[*ast.Ident]bool{}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decl[d.Name] = true
					if pkg == "" || !d.Name.IsExported() {
						continue
					}
					key := pkg + "." + d.Name.Name
					if d.Recv != nil {
						key = pkg + "." + receiverType(d.Recv.List[0].Type) + "." + d.Name.Name
					}
					s.declared[key] = fset.Position(d.Name.Pos())
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{sp.Name}
						case *ast.ValueSpec:
							names = sp.Names
						}
						for _, id := range names {
							decl[id] = true
							if pkg != "" && id.IsExported() {
								s.declared[pkg+"."+id.Name] = fset.Position(id.Pos())
							}
						}
					}
				}
			}
		}
		for _, f := range files {
			// The names this file imports internal packages under.
			imports := map[string]string{}
			for _, im := range f.Imports {
				path, _ := strconv.Unquote(im.Path.Value)
				if !strings.HasPrefix(path, surfaceModule) {
					continue
				}
				target := strings.TrimPrefix(path, surfaceModule)
				name := target[strings.LastIndex(target, "/")+1:]
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = target
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					s.used["."+x.Sel.Name] = true
					if id, ok := x.X.(*ast.Ident); ok {
						if target, ok := imports[id.Name]; ok {
							s.used[target+"."+x.Sel.Name] = true
						}
					}
				case *ast.Ident:
					if pkg != "" && !decl[x] {
						s.used[pkg+"."+x.Name] = true
					}
				}
				return true
			})
		}
	}
	return s
}

// unused lists the declared names nothing references, sorted.
func (s surfaceScan) unused() []string {
	var out []string
	for key := range s.declared {
		parts := strings.Split(key, ".")
		if len(parts) == 3 {
			if !s.used["."+parts[2]] {
				out = append(out, key)
			}
		} else if !s.used[key] {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// readAllowlist parses testdata/surface.txt: one "pkg.Name citation" entry
// a line, with blank lines and #-comments ignored.
func readAllowlist(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(surfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, cite, _ := strings.Cut(text, " ")
		cite = strings.TrimSpace(cite)
		if _, dup := allow[name]; dup {
			t.Errorf("%s:%d: %s is listed twice", surfaceAllowlist, line, name)
		}
		if !surfaceCitation.MatchString(cite) {
			t.Errorf("%s:%d: %s carries no citation: give the paper section, table or figure it reproduces, or the interface it satisfies", surfaceAllowlist, line, name)
		}
		allow[name] = cite
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// TestSurfaceBudget fails on an exported name with neither a production
// caller nor an allowlist citation, and on an allowlist entry that has
// gone stale, so the list can only shrink.
func TestSurfaceBudget(t *testing.T) {
	s := scanSurface(t)
	allow := readAllowlist(t)
	unused := map[string]bool{}
	for _, key := range s.unused() {
		unused[key] = true
		if _, ok := allow[key]; !ok {
			t.Errorf("%s (%s) is exported but nothing outside tests references it: delete it, or cite the paper section it reproduces in %s", key, s.declared[key], surfaceAllowlist)
		}
	}
	var stale []string
	for key := range allow {
		if !unused[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		if _, ok := s.declared[key]; !ok {
			t.Errorf("%s is in %s but no longer exists: remove the stale entry", key, surfaceAllowlist)
		} else {
			t.Errorf("%s is in %s but now has a production caller: remove the stale entry", key, surfaceAllowlist)
		}
	}
}
