package lint

import (
	"go/ast"
	"go/types"
)

// lockedioIO lists known network-I/O entry points by pkgpath.Type.Method
// (methods) or pkgpath.Func (package functions). A call to any of these
// while a sync mutex is held risks the deadlock/latency class the
// per-connection writer locks of the comm and rcds layers flirt with:
// a blocked write parks every goroutine queued on the mutex.
var lockedioMethods = map[string]bool{
	"snipe/internal/comm.Endpoint.Send":      true,
	"snipe/internal/comm.Endpoint.SendWait":  true,
	"snipe/internal/comm.Endpoint.Recv":      true,
	"snipe/internal/comm.Endpoint.RecvMatch": true,
	"snipe/internal/comm.FrameConn.Send":     true,
	"snipe/internal/comm.FrameConn.Recv":     true,

	"snipe/internal/rcds.Client.Ping":         true,
	"snipe/internal/rcds.Client.Set":          true,
	"snipe/internal/rcds.Client.Add":          true,
	"snipe/internal/rcds.Client.AddSigned":    true,
	"snipe/internal/rcds.Client.Remove":       true,
	"snipe/internal/rcds.Client.RemoveAll":    true,
	"snipe/internal/rcds.Client.Get":          true,
	"snipe/internal/rcds.Client.Values":       true,
	"snipe/internal/rcds.Client.FirstValue":   true,
	"snipe/internal/rcds.Client.URIs":         true,
	"snipe/internal/rcds.Client.post":         true,
	"snipe/internal/rcds.Client.waitOn":       true,
	"snipe/internal/rcds.Client.WaitURI":      true,
	"snipe/internal/rcds.Client.Stats":        true,
	"snipe/internal/rcds.Client.Catchup":      true,
	"snipe/internal/rcds.Client.SnapshotPage": true,
	"snipe/internal/rcds.Client.roundTrip":    true,

	// The one length-prefixed frame reader and writer, under every comm
	// stream transport and every rcds connection.
	"snipe/internal/xdr.FrameReader.Next":       true,
	"snipe/internal/xdr.FrameReader.ReadBody":   true,
	"snipe/internal/xdr.FrameReader.Serve":      true,
	"snipe/internal/xdr.FrameWriter.WriteFrame": true,
}

// rcds wraps the xdr frame write above with its MAC; the analysis is
// intra-procedural, so the wrapper is named too.
var lockedioFuncs = map[string]bool{
	"snipe/internal/rcds.writeFrame": true,
}

// NewLockedio returns the lockedio analyzer. The analysis is
// intentionally conservative and intra-procedural: it rides the shared
// lockwalk interpreter (see lockwalk.go) and flags any known
// network-I/O call made while a mutex is held.
func NewLockedio() *Analyzer {
	a := &Analyzer{
		Name: "lockedio",
		Doc:  "flags network I/O performed while a sync.Mutex or RWMutex is held",
	}
	a.Run = runLockedio
	return a
}

type lockedioPass struct {
	pass    *Pass
	netConn *types.Interface // nil when the package graph lacks net
}

func runLockedio(pass *Pass) error {
	lp := &lockedioPass{pass: pass, netConn: findNetConn(pass.Pkg)}
	lw := &lockWalker{
		info: pass.Info,
		onCall: func(call *ast.CallExpr, held map[string]lockSite) {
			if len(held) == 0 {
				return
			}
			if name, ok := lp.ioCall(call); ok {
				for key, site := range held {
					lp.pass.Reportf(call.Pos(),
						"network I/O (%s) while holding %s (locked at %s)",
						name, trimRKey(key), lp.pass.Fset.Position(site.pos))
					break
				}
			}
		},
	}
	for _, file := range pass.Files {
		lw.walkFile(file)
	}
	return nil
}

// findNetConn locates the net.Conn interface in the package's import
// closure, so implementations (e.g. *net.TCPConn) are recognized too.
func findNetConn(pkg *types.Package) *types.Interface {
	seen := map[*types.Package]bool{}
	var queue []*types.Package
	queue = append(queue, pkg.Imports()...)
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if seen[p] {
			continue
		}
		seen[p] = true
		if p.Path() == "net" {
			obj := p.Scope().Lookup("Conn")
			if obj == nil {
				return nil
			}
			iface, _ := obj.Type().Underlying().(*types.Interface)
			return iface
		}
		queue = append(queue, p.Imports()...)
	}
	return nil
}

func trimRKey(key string) string {
	if len(key) > 2 && key[len(key)-2:] == ":r" {
		return key[:len(key)-2] + " (read lock)"
	}
	return key
}

// ioCall reports whether call is a known network-I/O operation.
func (lp *lockedioPass) ioCall(call *ast.CallExpr) (string, bool) {
	f := calleeFunc(lp.pass.Info, call)
	if f == nil {
		return "", false
	}
	if key := methodKey(f); key != "" && lockedioMethods[key] {
		return f.Name(), true
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() == nil && f.Pkg() != nil {
		if lockedioFuncs[f.Pkg().Path()+"."+f.Name()] {
			return f.Name(), true
		}
	}
	// Read/Write on anything satisfying net.Conn.
	if lp.netConn != nil && (f.Name() == "Read" || f.Name() == "Write") {
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			rt := sig.Recv().Type()
			if types.Implements(rt, lp.netConn) ||
				types.Implements(types.NewPointer(rt), lp.netConn) {
				return "net.Conn." + f.Name(), true
			}
			if named, ok := rt.(*types.Named); ok && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() == "net" && named.Obj().Name() == "Conn" {
				return "net.Conn." + f.Name(), true
			}
		}
	}
	return "", false
}
