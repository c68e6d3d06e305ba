package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// taguniq is the wire-discriminant registry check: every constant that
// discriminates a wire format — comm frame types, SNIPE message tags,
// call reply statuses, rcds response status tags, fileserv ops, mcast
// envelope kinds — must be unique within its space, and must never
// reuse a value that was retired from that space. Two constants with
// one value make a decoder take the wrong arm; reusing a retired value
// makes a new-version frame parse as the old meaning on a peer that
// has not upgraded, which is exactly the silent mixed-version collision
// a format replaced without version negotiation must not meet.
//
// Retiring a discriminant: delete the constant, then add its value to
// the space's retired map below with a note naming what it meant. The
// value is then tombstoned forever.

// taguniqSpace declares one discriminant namespace: which constants
// belong to it (by defining package and name pattern) and which values
// are retired.
type taguniqSpace struct {
	name    string
	member  func(pkgPath, constName string) bool
	retired map[int64]string // value → what it used to mean
}

func taguniqIn(pkgPath, pattern string) func(string, string) bool {
	re := regexp.MustCompile(pattern)
	return func(pkg, name string) bool { return pkg == pkgPath && re.MatchString(name) }
}

var taguniqTagName = regexp.MustCompile(`^Tag[A-Z]`)

// taguniqSpaces is the registry; the retired maps are the tombstone
// mechanism (also exercised by the fixture corpus).
func taguniqSpaces() []*taguniqSpace {
	return []*taguniqSpace{
		{
			name:   "comm frame type",
			member: taguniqIn("snipe/internal/comm", `^frame[A-Z]`),
			retired: map[int64]string{
				4: "per-fragment ack",
				5: "ack batch, each entry naming src and dst",
				6: "fragment-ack batch behind a count",
			},
		},
		{
			// A reply's status byte (comm/stream.go). The stream frame
			// kinds before it were a field of another layout, retired with
			// the layout.
			name:    "comm call reply status",
			member:  taguniqIn("snipe/internal/comm", `^call[A-Z]`),
			retired: map[int64]string{},
		},
		{
			// The SNIPE message-tag space: the system tags every daemon
			// protocol rides (task.Tag*), plus comm's reserved tags
			// (AnyTag sentinel, StreamTag for call requests, ReplyTag
			// for every reply).
			name: "message tag",
			member: func(pkg, name string) bool {
				if pkg == "snipe/internal/task" {
					return taguniqTagName.MatchString(name)
				}
				if pkg == "snipe/internal/comm" {
					return name == "AnyTag" || name == "StreamTag" || name == "ReplyTag"
				}
				return false
			},
			// One response tag per protocol, each retired when its replies
			// moved to comm's reply tag.
			retired: map[int64]string{
				0xF0000003: "remote-spawn response",
				0xF0000006: "daemon task-table response",
				0xF0000009: "migration-adopt response",
				0xF000000C: "resource-manager response",
				0xF000000E: "checkpoint response",
				0xF0000011: "daemon metrics-snapshot response",
			},
		},
		{
			name:    "rcds response status tag",
			member:  taguniqIn("snipe/internal/rcds", `^status[A-Z]`),
			retired: map[int64]string{},
		},
		{
			name:    "rcds command tag",
			member:  taguniqIn("snipe/internal/rcds", `^cmd[A-Z]`),
			retired: map[int64]string{},
		},
		{
			name:    "rcds catch-up mode tag",
			member:  taguniqIn("snipe/internal/rcds", `^catchupMode[A-Z]`),
			retired: map[int64]string{},
		},
		{
			name:    "fileserv op",
			member:  taguniqIn("snipe/internal/fileserv", `^op[A-Z]`),
			retired: map[int64]string{},
		},
		{
			name:    "mcast envelope kind",
			member:  taguniqIn("snipe/internal/mcast", `^k[A-Z]`),
			retired: map[int64]string{},
		},
		{
			// The gossip datagram kinds riding task.TagGossip (the tag
			// itself lives in the message-tag space above).
			name:    "gossip message kind",
			member:  taguniqIn("snipe/internal/gossip", `^kind[A-Z]`),
			retired: map[int64]string{},
		},
		{
			// Fixture space, so the corpus can exercise a collision and
			// a retired-value reuse without touching real registries.
			name:    "fixture tag",
			member:  taguniqIn("snipe/lintfixture/taguniq", `^tag[A-Z]`),
			retired: map[int64]string{9: "tagLegacyPing, retired when the ping op moved to tagEcho"},
		},
	}
}

// taguniqConst is one collected discriminant.
type taguniqConst struct {
	name  string
	value int64
	pos   token.Pos
	where string
}

// NewTaguniq returns the taguniq analyzer: Run collects matching
// constants per package, Finish checks uniqueness and tombstones.
func NewTaguniq() *Analyzer {
	a := &Analyzer{
		Name: "taguniq",
		Doc:  "checks wire discriminants for uniqueness within their space and against retired values",
	}
	spaces := taguniqSpaces()
	collected := make(map[*taguniqSpace][]taguniqConst)
	a.Run = func(pass *Pass) error {
		pkgPath := pass.Pkg.Path()
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, nameID := range vs.Names {
						cnst, ok := pass.Info.Defs[nameID].(*types.Const)
						if !ok {
							continue
						}
						val, exact := constant.Int64Val(constant.ToInt(cnst.Val()))
						if !exact {
							// A uint64-range sentinel still identifies a
							// slot; fold it into int64 space for comparison.
							if u, uexact := constant.Uint64Val(constant.ToInt(cnst.Val())); uexact {
								val = int64(u)
							} else {
								continue
							}
						}
						for _, sp := range spaces {
							if sp.member(pkgPath, nameID.Name) {
								collected[sp] = append(collected[sp], taguniqConst{
									name:  nameID.Name,
									value: val,
									pos:   nameID.Pos(),
									where: pass.Fset.Position(nameID.Pos()).String(),
								})
							}
						}
					}
				}
			}
		}
		return nil
	}
	a.Finish = func(report func(pos token.Pos, format string, args ...any)) error {
		for _, sp := range spaces {
			consts := collected[sp]
			sort.Slice(consts, func(i, j int) bool { return consts[i].pos < consts[j].pos })
			byValue := map[int64][]taguniqConst{}
			for _, c := range consts {
				byValue[c.value] = append(byValue[c.value], c)
			}
			values := make([]int64, 0, len(byValue))
			for v := range byValue {
				values = append(values, v)
			}
			sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
			for _, v := range values {
				group := byValue[v]
				if len(group) > 1 {
					for _, c := range group[1:] {
						report(c.pos,
							"%s %s = %d collides with %s (declared at %s); %s discriminants must be unique",
							sp.name, c.name, v, group[0].name, group[0].where, sp.name)
					}
				}
				if note, ok := sp.retired[v]; ok {
					for _, c := range group {
						report(c.pos,
							"%s %s reuses retired value %d (%s); retired wire values are tombstoned forever — pick a fresh one",
							sp.name, c.name, v, note)
					}
				}
			}
		}
		return nil
	}
	return a
}
