package rcds

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
	"unsafe"

	"snipe/internal/testutil"
	"snipe/internal/xdr"
)

// TestEveryAttrNameIsInterned reads the Attr… constants out of
// assertion.go and checks that attrNames holds each: a constant added
// without its table entry would be allocated per op and kept per entry.
func TestEveryAttrNameIsInterned(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "assertion.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || len(spec.Values) != 1 || len(spec.Names[0].Name) < 5 || spec.Names[0].Name[:4] != "Attr" {
			return true
		}
		lit, ok := spec.Values[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, _ := strconv.Unquote(lit.Value)
		found++
		if attrNames[name] != name {
			t.Errorf("%s = %q is not in attrNames", spec.Names[0].Name, name)
		}
		return true
	})
	if found != len(attrNames) || found == 0 {
		t.Errorf("assertion.go declares %d Attr… names, attrNames holds %d", found, len(attrNames))
	}
}

// TestDecodeNameInterns: a well-known name decodes to the package's own
// string without allocating; an unknown one decodes to itself and leaves
// the table as it was.
func TestDecodeNameInterns(t *testing.T) {
	e := xdr.NewEncoder(64)
	e.PutString(AttrCommAddr)
	e.PutString("x-site-local")
	size := len(attrNames)
	d := xdr.NewDecoder(e.Bytes())
	known, err := decodeName(d)
	if err != nil || unsafe.StringData(known) != unsafe.StringData(AttrCommAddr) {
		t.Fatalf("decodeName = %q, %v; want the package's own %q", known, err, AttrCommAddr)
	}
	if open, err := decodeName(d); err != nil || open != "x-site-local" || len(attrNames) != size {
		t.Fatalf("an unknown name decoded to %q, %v, table size %d → %d", open, err, size, len(attrNames))
	}
	if got := testing.AllocsPerRun(100, func() {
		decodeName(xdr.NewDecoder(e.Bytes()))
	}); got != 0 && !testutil.RaceEnabled {
		t.Errorf("decoding a well-known name allocates %.0f times", got)
	}
}
