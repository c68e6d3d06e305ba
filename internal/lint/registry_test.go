package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRegistriesNameDeclaredCode: every entry of the ctxfirst and
// lockedio registries names a function, method or interface method that
// its package declares, so an API that is deleted leaves the registries
// with it. Test files count, since snipe-lint runs with -tests.
func TestRegistriesNameDeclaredCode(t *testing.T) {
	decls := map[string]map[string]bool{} // package path → "Type.Method" and "Func"
	declared := func(pkgPath, name string) bool {
		if decls[pkgPath] == nil {
			decls[pkgPath] = declsOf(t, pkgPath)
		}
		return decls[pkgPath][name]
	}
	for typ, methods := range ctxfirstAPI {
		for m := range methods {
			if !declared("snipe/internal/rcds", typ+"."+m) && !declared("snipe/internal/comm", typ+"."+m) {
				t.Errorf("ctxfirstAPI names %s.%s, which neither rcds nor comm declares", typ, m)
			}
		}
	}
	for _, reg := range []map[string]bool{lockedioMethods, lockedioFuncs} {
		for key := range reg {
			slash := strings.LastIndex(key, "/")
			dot := slash + strings.Index(key[slash:], ".")
			if !declared(key[:dot], key[dot+1:]) {
				t.Errorf("lockedio names %s, which its package does not declare", key)
			}
		}
	}
}

// declsOf parses the Go files of one package of this module and returns
// the names it declares: "Func", "Type.Method" for a method or an
// interface method.
func declsOf(t *testing.T, pkgPath string) map[string]bool {
	t.Helper()
	dir := filepath.Join("..", "..", strings.TrimPrefix(pkgPath, "snipe/"))
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no Go files for %s in %s: %v", pkgPath, dir, err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
					continue
				}
				typ := d.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					names[id.Name+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if it, ok := ts.Type.(*ast.InterfaceType); ok {
						for _, m := range it.Methods.List {
							for _, n := range m.Names {
								names[ts.Name.Name+"."+n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return names
}
