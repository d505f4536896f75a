// Package analysis driver: one Analyze call per package computes the
// held-lock in-state of every basic block (analysis.ForwardMay over the
// CFGs), iterates function summaries to fixpoint so same-package call
// chains compose, then re-walks each function attributing per-site facts:
// lock-order edges, double-acquires, and blocking operations under held
// locks.
package conc

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"fusionq/internal/lint/analysis"
)

// heldInfo is one may-held lock: where it was acquired and, when
// resolvable, the base variable it was acquired through (the instance
// refinement for double-acquire reports).
type heldInfo struct {
	pos token.Pos
	obj types.Object
}

type heldMap map[string]heldInfo

func cloneHeld(v heldMap) heldMap {
	out := make(heldMap, len(v))
	for k, h := range v {
		out[k] = h
	}
	return out
}

// unit is one analyzable body: a function declaration or a function
// literal (literals get sites but no exported summary).
type unit struct {
	fnName   string // short name scoping local lock keys ("Client.doRoundTrip")
	fullName string // types.Func FullName; "" for literals
	body     *ast.BlockStmt
	cfg      *analysis.CFG
	in       map[*analysis.Block]heldMap
}

type pkgAnalysis struct {
	pass     *analysis.Pass
	pkgName  string
	imported Facts
	own      Facts
	units    []*unit
}

// Analyze computes the package's concurrency summaries and report sites.
func Analyze(pass *analysis.Pass) *Info {
	info := &Info{Own: Facts{}, All: Facts{}}
	if pass.Pkg == nil {
		return info
	}
	a := &pkgAnalysis{
		pass:     pass,
		pkgName:  pass.Pkg.Name(),
		imported: DecodeAll(pass.ImportedFacts),
		own:      Facts{},
	}
	a.collectUnits()
	for _, u := range a.units {
		u.cfg = analysis.BuildCFG(u.body)
		u.in = analysis.ForwardMay[heldMap](u.cfg, heldLattice{a: a, u: u})
	}
	// Fixpoint: summaries grow monotonically (Blocks latches, Acquires and
	// Edges only gain entries), so same-package call chains — including
	// recursion — converge in at most a few rounds.
	for round := 0; round < 32; round++ {
		changed := false
		for _, u := range a.units {
			if u.fullName == "" {
				continue
			}
			s := a.collect(u, nil)
			if !sumEqual(s, a.own[u.fullName]) {
				changed = true
			}
			a.own[u.fullName] = s
		}
		if !changed {
			break
		}
	}
	info.Own = a.own
	for k, v := range a.imported {
		info.All[k] = v
	}
	for k, v := range a.own {
		info.All[k] = v
	}
	for _, u := range a.units {
		a.collect(u, info)
	}
	info.Edges = dedupeEdges(info.Edges)
	return info
}

func (a *pkgAnalysis) collectUnits() {
	for _, f := range a.pass.Files {
		if a.pass.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := a.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			name := declName(fd)
			a.units = append(a.units, &unit{fnName: name, fullName: fn.FullName(), body: fd.Body})
			// Literals are their own units: a closure runs on its own
			// goroutine or schedule, not under the caller's held set. Local
			// mutexes of the enclosing function keep their key (fnName), so
			// a closure locking its parent's mutex agrees with the parent.
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				if lit, ok := x.(*ast.FuncLit); ok {
					a.units = append(a.units, &unit{fnName: name, body: lit.Body})
				}
				return true
			})
		}
	}
}

func declName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		if st, ok := t.(*ast.StarExpr); ok {
			t = st.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

func (a *pkgAnalysis) lookup(name string) *Summary {
	if s, ok := a.own[name]; ok {
		return s
	}
	return a.imported[name]
}

func (a *pkgAnalysis) pos(p token.Pos) string {
	return a.pass.Fset.Position(p).String()
}

func sumEqual(x, y *Summary) bool {
	bx, _ := json.Marshal(x)
	by, _ := json.Marshal(y)
	return bytes.Equal(bx, by)
}

func dedupeEdges(edges []EdgeSite) []EdgeSite {
	seen := map[[2]string]bool{}
	out := edges[:0]
	for _, e := range edges {
		k := [2]string{e.From, e.To}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, e)
	}
	return out
}

// heldLattice adapts the held-set transfer to analysis.Lattice.
type heldLattice struct {
	a *pkgAnalysis
	u *unit
}

func (l heldLattice) Bottom() heldMap         { return heldMap{} }
func (l heldLattice) Clone(v heldMap) heldMap { return cloneHeld(v) }

func (l heldLattice) Join(dst, src heldMap) (heldMap, bool) {
	changed := false
	for k, h := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = h
			changed = true
		}
	}
	return dst, changed
}

func (l heldLattice) Transfer(n ast.Node, v heldMap) heldMap {
	walkNode(l.a, l.u, n, v, nil)
	return v
}

// collect replays every block from its solved in-state, building the
// unit's summary; with info non-nil it also records report sites.
func (a *pkgAnalysis) collect(u *unit, info *Info) *Summary {
	c := &collector{a: a, u: u, sum: &Summary{}, info: info}
	for _, blk := range u.cfg.Blocks {
		held := cloneHeld(u.in[blk])
		for _, n := range blk.Nodes {
			walkNode(a, u, n, held, c)
		}
	}
	c.sum.sorted()
	return c.sum
}

type collector struct {
	a    *pkgAnalysis
	u    *unit
	sum  *Summary
	info *Info
}

// walkNode folds one atomic CFG node into held, reporting to c when
// non-nil. It is both the dataflow transfer function (c == nil) and the
// site collector (c != nil), so the two passes cannot disagree.
func walkNode(a *pkgAnalysis, u *unit, n ast.Node, held heldMap, c *collector) {
	info := a.pass.TypesInfo
	switch s := n.(type) {
	case *ast.SelectStmt:
		if c != nil {
			c.selectStmt(s, held)
		}
		return
	case *ast.RangeStmt:
		if c != nil {
			if tv, ok := info.Types[s.X]; ok && isChanType(tv.Type) {
				c.block("range over channel", s.X.Pos(), held)
			}
		}
		walkInspect(a, u, s.X, held, c)
		return
	case *ast.DeferStmt:
		if _, op, ok := mutexOp(info, s.Call); ok {
			// defer mu.Unlock(): the lock is held for the remainder of the
			// function — leave it in the set. defer mu.Lock() is nonsense;
			// ignore it too.
			_ = op
			return
		}
	}
	walkInspect(a, u, n, held, c)
}

func walkInspect(a *pkgAnalysis, u *unit, n ast.Node, held heldMap, c *collector) {
	info := a.pass.TypesInfo
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // its own unit
		case *ast.SelectStmt:
			if c != nil {
				c.selectStmt(x, held)
			}
			return false
		case *ast.SendStmt:
			if c != nil {
				c.block("channel send", x.Arrow, held)
			}
			return true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && c != nil {
				c.block("channel receive", x.OpPos, held)
			}
			return true
		case *ast.GoStmt:
			// The launched call runs on another goroutine with an empty
			// held set (literal bodies are separate units); only argument
			// expressions evaluate here.
			for _, arg := range x.Call.Args {
				walkInspect(a, u, arg, held, c)
			}
			return false
		case *ast.CallExpr:
			if recv, op, ok := mutexOp(info, x); ok {
				key, obj := lockKey(info, a.pkgName, u.fnName, recv)
				switch op {
				case "Lock", "RLock", "TryLock", "TryRLock":
					if c != nil {
						c.acquire(key, obj, x.Pos(), held)
					}
					if _, exists := held[key]; !exists {
						held[key] = heldInfo{pos: x.Pos(), obj: obj}
					}
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				return false
			}
			if c != nil {
				c.call(x, held)
			}
			return true
		}
		return true
	})
}

func (c *collector) heldRefs(held heldMap) []HeldRef {
	out := make([]HeldRef, 0, len(held))
	for k, h := range held {
		out = append(out, HeldRef{Key: k, Since: c.a.pos(h.pos)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (c *collector) block(what string, pos token.Pos, held heldMap) {
	c.sum.setBlocks(what)
	if c.info != nil && len(held) > 0 {
		c.info.Blocks = append(c.info.Blocks, BlockSite{What: what, Held: c.heldRefs(held), Pos: pos})
	}
}

func (c *collector) selectStmt(s *ast.SelectStmt, held heldMap) {
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return // a ready default: the select cannot block
		}
	}
	c.block("select with no default case", s.Select, held)
}

func (c *collector) acquire(key string, obj types.Object, pos token.Pos, held heldMap) {
	if h, ok := held[key]; ok {
		// Re-acquire. Two provably distinct variables of the same type are
		// exempt (the key merges instances; the objects prove otherwise).
		if h.obj == nil || obj == nil || h.obj == obj {
			if c.info != nil {
				c.info.Doubles = append(c.info.Doubles, DoubleSite{Key: key, HeldSince: c.a.pos(h.pos), Pos: pos})
			}
		}
		return
	}
	for hk, h := range held {
		e := Edge{From: hk, To: key, FromPos: c.a.pos(h.pos), ToPos: c.a.pos(pos)}
		c.sum.edge(e)
		if c.info != nil {
			c.info.Edges = append(c.info.Edges, EdgeSite{Edge: e, Pos: pos})
		}
	}
	c.sum.acquire(key, c.a.pos(pos))
}

func (c *collector) call(call *ast.CallExpr, held heldMap) {
	fn := analysis.CalleeFunc(c.a.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if s := c.a.lookup(fn.FullName()); s != nil {
		if s.Blocks {
			c.sum.setBlocks(s.BlockWhat)
			if c.info != nil && len(held) > 0 {
				c.info.Blocks = append(c.info.Blocks, BlockSite{
					What: "call to " + displayFunc(fn) + ", which may block (" + s.BlockWhat + ")",
					Held: c.heldRefs(held),
					Pos:  call.Pos(),
				})
			}
		}
		for _, k2 := range sortedKeys(s.Acquires) {
			p2 := s.Acquires[k2]
			if h, ok := held[k2]; ok {
				if c.info != nil {
					c.info.Doubles = append(c.info.Doubles, DoubleSite{
						Key: k2, HeldSince: c.a.pos(h.pos), Pos: call.Pos(),
						Via: displayFunc(fn), CalleePos: p2,
					})
				}
			} else {
				for hk, h := range held {
					e := Edge{From: hk, To: k2, FromPos: c.a.pos(h.pos), ToPos: p2}
					c.sum.edge(e)
					if c.info != nil {
						c.info.Edges = append(c.info.Edges, EdgeSite{Edge: e, Pos: call.Pos(), Via: displayFunc(fn)})
					}
				}
			}
			c.sum.acquire(k2, p2)
		}
		return
	}
	if what, ok := blockingCall(fn); ok {
		c.block(what, call.Pos(), held)
	}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
