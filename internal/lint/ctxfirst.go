package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ctxfirstAPI lists the context-first method sets by receiver type name:
// every request method of rcds.Client and comm.Endpoint. The analyzer
// flags a `<Name>Context` sibling of one, and one declared without a
// leading context.Context.
var ctxfirstAPI = map[string]map[string]bool{
	"Client": {
		"Ping": true, "Set": true, "Add": true, "AddSigned": true,
		"Remove": true, "RemoveAll": true, "Get": true, "Values": true,
		"FirstValue": true, "URIs": true, "WaitURI": true,
		"Stats": true, "Catchup": true, "SnapshotPage": true,
		"AddSignedBy": true, "PublishKey": true, "VerifiedValues": true,
	},
	"Endpoint": {
		"SendWait": true, "Recv": true, "RecvMatch": true, "AwaitReply": true,
	},
}

// ctxfirstScope reports whether a receiver package is one the API
// contract covers. The lintfixture prefix admits the linttest fixture
// packages, which declare lookalike Client/Endpoint types to exercise
// the analyzer (real methods on rcds.Client/comm.Endpoint can only be
// declared inside their own packages).
func ctxfirstScope(pkgPath string) bool {
	return pkgPath == "snipe/internal/rcds" ||
		pkgPath == "snipe/internal/comm" ||
		strings.HasPrefix(pkgPath, "snipe/lintfixture/")
}

// ctxfirstRecv resolves a method's receiver to an in-scope API type
// name, or "" when the method is outside the contract.
func ctxfirstRecv(f *types.Func) string {
	pkgPath, typ := recvNamed(f)
	if !ctxfirstScope(pkgPath) {
		return ""
	}
	if _, ok := ctxfirstAPI[typ]; !ok {
		return ""
	}
	return typ
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// NewCtxfirst returns the ctxfirst analyzer. The rcds.Client and
// comm.Endpoint request APIs are context-first: the bare names
// (Ping, Get, SendWait, Recv, ...) take a context.Context as their
// first parameter and there are no timeout-signature or *Context
// variants. The analyzer flags declarations that reintroduce either
// shape, and any surviving call to an old *Context name.
func NewCtxfirst() *Analyzer {
	a := &Analyzer{
		Name: "ctxfirst",
		Doc:  "enforces the context-first rcds.Client/comm.Endpoint API: no *Context variants, no context-less signatures",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil {
					continue
				}
				f, ok := pass.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				typ := ctxfirstRecv(f)
				if typ == "" {
					continue
				}
				name := f.Name()
				if bare := strings.TrimSuffix(name, "Context"); bare != name && ctxfirstAPI[typ][bare] {
					pass.Reportf(fd.Name.Pos(),
						"%s.%s reintroduces a deprecated *Context name; the context-first API is %s(ctx, ...)",
						typ, name, bare)
					continue
				}
				if !ctxfirstAPI[typ][name] {
					continue
				}
				sig := f.Type().(*types.Signature)
				if sig.Params().Len() == 0 || !isContextType(sig.Params().At(0).Type()) {
					pass.Reportf(fd.Name.Pos(),
						"%s.%s must take a context.Context as its first parameter",
						typ, name)
				}
			}
			// Calls to a *Context name reaching an in-scope receiver can
			// only exist alongside a flagged declaration, but report them
			// too so callers in other packages surface under lint as well.
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := calleeFunc(pass.Info, call)
				if f == nil {
					return true
				}
				typ := ctxfirstRecv(f)
				if typ == "" {
					return true
				}
				name := f.Name()
				if bare := strings.TrimSuffix(name, "Context"); bare != name && ctxfirstAPI[typ][bare] {
					pass.Reportf(call.Pos(),
						"call to deprecated %s.%s; use %s(ctx, ...)", typ, name, bare)
				}
				return true
			})
		}
		return nil
	}
	return a
}
