// Package lint is snipe-lint: a suite of SNIPE-specific static
// analyzers in the style of golang.org/x/tools/go/analysis, built on
// the standard library's go/ast and go/types only (this tree builds
// offline, so the x/tools module is deliberately not a dependency).
//
// The suite encodes invariants generic vet/staticcheck cannot see:
//
//   - ctxfirst: the rcds.Client and comm.Endpoint request methods take
//     a context.Context first, and none has a *Context sibling.
//   - ctxleak: every cancel function a context constructor returns is
//     called on every path.
//   - goroutinelife: a library goroutine that can block forever has a
//     ctx, done-channel or close escape.
//   - lockedio: no network I/O while a sync.Mutex/RWMutex is held.
//   - lockorder: the program-wide mutex acquisition graph is acyclic
//     and follows the declared order.
//   - statskey: metric-name literals must follow the naming convention
//     and must not be near-duplicates of each other.
//   - taguniq: wire discriminants are unique within their space and
//     never reuse a retired value.
//   - xdrbound: every length-prefixed xdr decode must state a
//     caller-side cap (the *Max variants).
//
// A finding is suppressed by a comment on the flagged line or the line
// above it:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; a bare allowance is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one suite check. Run is invoked once per
// package; Finish, if set, is invoked once after every package has been
// analyzed (for cross-package checks such as statskey).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// Finish reports findings that need the whole-program view. It
	// receives a reporter bound to the suite.
	Finish func(report func(pos token.Pos, format string, args ...any)) error
	// Tests includes _test.go files in the analyzer's Pass when the
	// loader was asked for them (goroutinelife checks test goroutines;
	// the API-shape analyzers exempt tests by construction).
	Tests bool
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	testFiles map[*ast.File]bool
	suite     *Suite
}

// IsTest reports whether f was loaded from a _test.go file. Analyzers
// with Tests set use it to scope test-only relaxations.
func (p *Pass) IsTest(f *ast.File) bool { return p.testFiles[f] }

// Reportf records a diagnostic at pos unless a lint:allow comment
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.suite.report(p.Analyzer.Name, pos, format, args...)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// allowKey identifies one (file, line) carrying a lint:allow comment.
type allowKey struct {
	file string
	line int
}

// Suite runs analyzers over packages and collects diagnostics.
type Suite struct {
	Fset      *token.FileSet
	Analyzers []*Analyzer

	Diags  []Diagnostic
	allows map[allowKey]map[string]bool // (file,line) -> analyzer set
	used   map[allowKey]bool            // allowances that suppressed something
	allPos map[allowKey]token.Pos       // position of the allow comment
}

// NewSuite returns a Suite over fset running the given analyzers.
func NewSuite(fset *token.FileSet, analyzers []*Analyzer) *Suite {
	return &Suite{
		Fset:      fset,
		Analyzers: analyzers,
		allows:    make(map[allowKey]map[string]bool),
		used:      make(map[allowKey]bool),
		allPos:    make(map[allowKey]token.Pos),
	}
}

// RunPackage applies every analyzer to one type-checked package whose
// files are all non-test sources. Loads that include _test.go files go
// through Run, which filters them per analyzer.
func (s *Suite) RunPackage(files []*ast.File, pkg *types.Package, info *types.Info) error {
	return s.Run(&Package{Files: files, Pkg: pkg, Info: info})
}

// Run applies every analyzer to one loaded package. Analyzers without
// Tests see only the non-test files; Tests analyzers see everything and
// can distinguish via Pass.IsTest.
func (s *Suite) Run(p *Package) error {
	for _, f := range p.Files {
		s.collectAllows(f)
	}
	var nonTest []*ast.File
	for _, f := range p.Files {
		if !p.TestFiles[f] {
			nonTest = append(nonTest, f)
		}
	}
	for _, a := range s.Analyzers {
		if a.Run == nil {
			continue
		}
		files := nonTest
		if a.Tests {
			files = p.Files
		}
		pass := &Pass{Analyzer: a, Fset: s.Fset, Files: files, Pkg: p.Pkg, Info: p.Info, testFiles: p.TestFiles, suite: s}
		if err := a.Run(pass); err != nil {
			return fmt.Errorf("%s: %s: %w", a.Name, p.Pkg.Path(), err)
		}
	}
	return nil
}

// Finish runs every analyzer's cross-package phase and reports
// malformed or unused lint:allow comments.
func (s *Suite) Finish() error {
	for _, a := range s.Analyzers {
		if a.Finish == nil {
			continue
		}
		name := a.Name
		report := func(pos token.Pos, format string, args ...any) {
			s.report(name, pos, format, args...)
		}
		if err := a.Finish(report); err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	// A suppression that no longer suppresses anything is stale and
	// must be deleted, or it will silently excuse a future regression.
	for key, analyzers := range s.allows {
		if s.used[key] {
			continue
		}
		names := make([]string, 0, len(analyzers))
		for name := range analyzers {
			names = append(names, name)
		}
		sort.Strings(names)
		s.Diags = append(s.Diags, Diagnostic{
			Pos:      s.Fset.Position(s.allPos[key]),
			Analyzer: "lintallow",
			Message:  fmt.Sprintf("unused suppression for %s; delete it", strings.Join(names, ", ")),
		})
	}
	sort.Slice(s.Diags, func(i, j int) bool {
		a, b := s.Diags[i].Pos, s.Diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return s.Diags[i].Message < s.Diags[j].Message
	})
	return nil
}

// collectAllows indexes every "//lint:allow <analyzer> <reason>"
// comment in f by file and line.
func (s *Suite) collectAllows(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:allow")
			if !ok {
				continue
			}
			pos := s.Fset.Position(c.Pos())
			key := allowKey{pos.Filename, pos.Line}
			fields := strings.Fields(text)
			if len(fields) < 2 {
				s.Diags = append(s.Diags, Diagnostic{
					Pos:      pos,
					Analyzer: "lintallow",
					Message:  "malformed suppression: want //lint:allow <analyzer> <reason>",
				})
				continue
			}
			if s.allows[key] == nil {
				s.allows[key] = make(map[string]bool)
			}
			s.allows[key][fields[0]] = true
			s.allPos[key] = c.Pos()
		}
	}
}

// report records a diagnostic unless a lint:allow comment on the same
// line or the line above names the analyzer.
func (s *Suite) report(analyzer string, pos token.Pos, format string, args ...any) {
	p := s.Fset.Position(pos)
	for _, key := range []allowKey{{p.Filename, p.Line}, {p.Filename, p.Line - 1}} {
		if s.allows[key][analyzer] {
			s.used[key] = true
			return
		}
	}
	s.Diags = append(s.Diags, Diagnostic{Pos: p, Analyzer: analyzer, Message: fmt.Sprintf(format, args...)})
}

// Analyzers returns a fresh instance of the full suite. Instances carry
// per-run state (statskey accumulates names across packages, lockorder
// and taguniq accumulate graphs and registries), so a slice must not be
// shared between suites.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NewCtxfirst(), NewLockedio(), NewXdrbound(), NewStatskey(),
		NewLockorder(), NewCtxleak(), NewGoroutinelife(), NewTaguniq(),
	}
}

// ---- shared type-inspection helpers --------------------------------

// calleeFunc resolves the called function or method of a CallExpr, or
// nil for calls of non-functions (conversions, builtins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// recvNamed returns the defining package path and type name of a
// method's receiver, dereferencing one pointer, or ("", "") for
// functions and methods on unnamed types.
func recvNamed(f *types.Func) (pkgPath, typeName string) {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", ""
	}
	return obj.Pkg().Path(), obj.Name()
}

// methodKey is "pkgpath.Type.Method", the key the analyzers match
// calls against.
func methodKey(f *types.Func) string {
	pkg, typ := recvNamed(f)
	if pkg == "" {
		return ""
	}
	return pkg + "." + typ + "." + f.Name()
}
