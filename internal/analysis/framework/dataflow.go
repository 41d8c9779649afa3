package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the framework's lightweight intraprocedural dataflow
// layer: per-function def/use chains, escape-of-reference tracking, and
// write sets, one summary per module call-graph node. It is deliberately
// flow-insensitive (sets, not paths) — precise enough to prove the
// engine hot path allocation-free, cheap enough to run on every lint.
// The hotalloc module analyzer builds on it; the per-function summaries
// are computed once per DataFlow and shared.

// EscapeReason classifies why a local variable's storage or value may
// outlive (or leave) its frame. Reasons are ordered by severity for
// the allocation question: AddrTaken and Captured force the variable
// itself onto the heap; Boxed heap-allocates a copy of its value;
// Stored copies the value into memory the frame does not own.
type EscapeReason uint8

const (
	// EscNone: the variable provably stays in its frame.
	EscNone EscapeReason = iota
	// EscStored: the value is copied into non-local memory (a field,
	// an element, or a package-level variable).
	EscStored
	// EscBoxed: the value is converted to an interface somewhere, which
	// heap-allocates a copy for non-pointer-shaped types.
	EscBoxed
	// EscCaptured: an enclosed function literal references the
	// variable, so it is allocated on the heap with the closure.
	EscCaptured
	// EscAddrTaken: the variable's address is taken; its storage must
	// assume the pointer outlives the frame.
	EscAddrTaken
)

func (r EscapeReason) String() string {
	switch r {
	case EscNone:
		return "none"
	case EscStored:
		return "stored"
	case EscBoxed:
		return "boxed"
	case EscCaptured:
		return "captured"
	case EscAddrTaken:
		return "address-taken"
	}
	return "?"
}

// A FuncSummary is the intraprocedural dataflow summary of one
// call-graph node: def/use chains for its variables, which locals
// escape and why, and which struct fields / package variables /
// captured variables it writes. Nested function literals are not part
// of their encloser's summary — they have their own nodes — except that
// capturing an encloser local marks that local EscCaptured.
type FuncSummary struct {
	Node *CGNode

	// Defs and Uses are the def/use chains: for every variable the
	// function touches, the positions where it is (re)defined and where
	// its value is read, in source order.
	Defs map[*types.Var][]token.Pos
	Uses map[*types.Var][]token.Pos

	// Escapes records, for locals (including parameters), the strongest
	// reason their storage or value may leave the frame.
	Escapes map[*types.Var]EscapeReason

	// Free lists captured variables — referenced here, declared in an
	// enclosing function — in first-use order.
	Free []*types.Var
	// FreeWrites are captured variables this function writes, directly
	// or through (first write site).
	FreeWrites map[*types.Var]token.Pos

	// FieldWrites are struct fields assigned anywhere in the function
	// (v.f = x, v.f++, x.y.f = ...), keyed by the field object.
	FieldWrites map[*types.Var]token.Pos

	// PkgWrites and PkgReads are package-level variables written
	// (directly or through) and read.
	PkgWrites map[*types.Var]token.Pos
	PkgReads  map[*types.Var]token.Pos
}

// Signature returns the node's function signature (nil only when type
// information is incomplete).
func (n *CGNode) Signature() *types.Signature { return signatureOf(n) }

func signatureOf(n *CGNode) *types.Signature {
	if n.Fn != nil {
		sig, _ := n.Fn.Type().(*types.Signature)
		return sig
	}
	if t := n.Pkg.TypesInfo.TypeOf(n.Lit); t != nil {
		sig, _ := t.(*types.Signature)
		return sig
	}
	return nil
}

// A DataFlow holds the per-function summaries for one call graph.
// Build once per module pass.
type DataFlow struct {
	Graph *CallGraph
	Sums  map[*CGNode]*FuncSummary
}

// NewDataFlow summarizes every node in the graph.
func NewDataFlow(g *CallGraph) *DataFlow {
	df := &DataFlow{Graph: g, Sums: make(map[*CGNode]*FuncSummary)}
	for _, n := range g.Funcs {
		df.Sums[n] = summarize(n)
	}
	for _, n := range g.Lits {
		df.Sums[n] = summarize(n)
	}
	return df
}

// Summary returns the summary for a node (nil for unknown nodes).
func (d *DataFlow) Summary(n *CGNode) *FuncSummary { return d.Sums[n] }

// VarKind classifies a variable relative to a node.
type VarKind int

const (
	VarLocal VarKind = iota // declared in this function (incl. params)
	VarFree                 // declared in an enclosing function
	VarPkg                  // package-level
)

func ClassifyVar(n *CGNode, v *types.Var) VarKind {
	if IsPkgLevel(v) {
		return VarPkg
	}
	var lo, hi token.Pos
	if n.Lit != nil {
		lo, hi = n.Lit.Pos(), n.Lit.End()
	} else {
		lo, hi = n.Dcl.Pos(), n.Dcl.End()
	}
	if v.Pos() >= lo && v.Pos() < hi {
		return VarLocal
	}
	return VarFree
}

// rootOf unwraps an lvalue-ish expression to its root variable and
// reports whether any selector/index/deref was crossed on the way
// (i.e. the write goes *through* the root rather than reassigning it).
// The last field crossed, if any, is returned too.
func RootOf(info *types.Info, e ast.Expr) (root *types.Var, through bool, field *types.Var) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok {
				return v, through, field
			}
			if v, ok := info.Defs[x].(*types.Var); ok {
				return v, through, field
			}
			return nil, false, nil
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok {
				if f, ok := sel.Obj().(*types.Var); ok && f.IsField() {
					if field == nil {
						field = f
					}
					through = true
					e = x.X
					continue
				}
			}
			// Package-qualified name (pkg.Var): the root is the var.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					if v, ok := info.Uses[x.Sel].(*types.Var); ok {
						return v, through, field
					}
				}
			}
			return nil, false, nil
		case *ast.IndexExpr:
			through = true
			e = x.X
		case *ast.StarExpr:
			through = true
			e = x.X
		default:
			return nil, false, nil
		}
	}
}

// summarize computes the intraprocedural summary of one node. Nested
// literal bodies are excluded (they have their own nodes) except for a
// capture scan that marks encloser locals EscCaptured.
func summarize(n *CGNode) *FuncSummary {
	info := n.Pkg.TypesInfo
	s := &FuncSummary{
		Node:        n,
		Defs:        make(map[*types.Var][]token.Pos),
		Uses:        make(map[*types.Var][]token.Pos),
		Escapes:     make(map[*types.Var]EscapeReason),
		FreeWrites:  make(map[*types.Var]token.Pos),
		FieldWrites: make(map[*types.Var]token.Pos),
		PkgWrites:   make(map[*types.Var]token.Pos),
		PkgReads:    make(map[*types.Var]token.Pos),
	}
	body := n.Body()
	if body == nil {
		return s
	}

	escalate := func(v *types.Var, r EscapeReason) {
		if r > s.Escapes[v] {
			s.Escapes[v] = r
		}
	}
	seenFree := make(map[*types.Var]bool)
	noteFree := func(v *types.Var) {
		if !seenFree[v] {
			seenFree[v] = true
			s.Free = append(s.Free, v)
		}
	}
	write := func(lhs ast.Expr, pos token.Pos) {
		root, through, field := RootOf(info, lhs)
		if field != nil {
			if _, ok := s.FieldWrites[field]; !ok {
				s.FieldWrites[field] = pos
			}
		}
		if root == nil {
			return
		}
		switch ClassifyVar(n, root) {
		case VarPkg:
			if _, ok := s.PkgWrites[root]; !ok {
				s.PkgWrites[root] = pos
			}
		case VarFree:
			noteFree(root)
			if _, ok := s.FreeWrites[root]; !ok {
				s.FreeWrites[root] = pos
			}
		case VarLocal:
			if !through {
				s.Defs[root] = append(s.Defs[root], pos)
			}
		}
	}

	// Plain-identifier assignment targets are definitions, not reads:
	// collect them first so the Ident case below does not count `v` in
	// `v = 1` (or a package var in `g = 1`) as a use.
	lhsRoots := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(node ast.Node) bool {
		if node == nil {
			return false
		}
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		if as, ok := node.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					lhsRoots[id] = true
				}
			}
		}
		return true
	})

	// Pass 1: defs, writes, escapes — skipping nested literals.
	var walk func(node ast.Node) bool
	walk = func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			return false // its own node; capture scan below
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				write(lhs, x.Pos())
			}
			// Boxing through assignment: concrete RHS into interface LHS.
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Rhs {
					if lt := info.TypeOf(x.Lhs[i]); Boxes(lt, info.TypeOf(x.Rhs[i])) {
						if v, _, _ := RootOf(info, x.Rhs[i]); v != nil && ClassifyVar(n, v) == VarLocal {
							escalate(v, EscBoxed)
						}
					}
				}
			}
			// Storing a local's value beyond the frame.
			for i, lhs := range x.Lhs {
				if i >= len(x.Rhs) {
					break
				}
				root, through, _ := RootOf(info, lhs)
				nonLocal := root == nil || ClassifyVar(n, root) != VarLocal || through
				if !nonLocal {
					continue
				}
				if v, vThrough, _ := RootOf(info, x.Rhs[i]); v != nil && !vThrough && ClassifyVar(n, v) == VarLocal {
					escalate(v, EscStored)
				}
			}
		case *ast.IncDecStmt:
			write(x.X, x.Pos())
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if v, through, _ := RootOf(info, x.X); v != nil && !through {
					switch ClassifyVar(n, v) {
					case VarLocal:
						escalate(v, EscAddrTaken)
					case VarFree:
						noteFree(v)
						if _, ok := s.FreeWrites[v]; !ok {
							s.FreeWrites[v] = x.Pos()
						}
					case VarPkg:
						if _, ok := s.PkgWrites[v]; !ok {
							s.PkgWrites[v] = x.Pos()
						}
					}
				}
			}
		case *ast.CallExpr:
			// Boxing through a call: concrete argument, interface param.
			ForEachBoxedArg(info, x, func(arg ast.Expr, _ types.Type) {
				if v, _, _ := RootOf(info, arg); v != nil && ClassifyVar(n, v) == VarLocal {
					escalate(v, EscBoxed)
				}
			})
		case *ast.Ident:
			if lhsRoots[x] {
				return true
			}
			if v, ok := info.Uses[x].(*types.Var); ok {
				switch ClassifyVar(n, v) {
				case VarPkg:
					if _, ok := s.PkgReads[v]; !ok {
						s.PkgReads[v] = x.Pos()
					}
				case VarFree:
					noteFree(v)
				}
				s.Uses[v] = append(s.Uses[v], x.Pos())
			}
			if v, ok := info.Defs[x].(*types.Var); ok {
				s.Defs[v] = append(s.Defs[v], x.Pos())
			}
		}
		return true
	}
	ast.Inspect(body, walk)

	// Pass 2: capture scan — locals referenced by nested literals are
	// heap-allocated with the closure.
	ast.Inspect(body, func(node ast.Node) bool {
		lit, ok := node.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(inner ast.Node) bool {
			id, ok := inner.(*ast.Ident)
			if !ok {
				return true
			}
			if v, ok := info.Uses[id].(*types.Var); ok {
				if v.Pos() < lit.Pos() && ClassifyVar(n, v) == VarLocal {
					escalate(v, EscCaptured)
				}
			}
			return true
		})
		return false // literal's own nested literals scanned by its node
	})

	for v := range s.Defs {
		sortPosList(s.Defs[v])
	}
	for v := range s.Uses {
		sortPosList(s.Uses[v])
	}
	return s
}

func sortPosList(ps []token.Pos) {
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
}

// boxes reports whether assigning a value of type `from` to a location
// of type `to` heap-allocates a copy: `to` is an interface, `from` is a
// concrete type that is not pointer-shaped (pointers, channels, maps,
// funcs and unsafe pointers fit in the interface word directly).
func Boxes(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	if !types.IsInterface(to) || types.IsInterface(from) {
		return false
	}
	if b, ok := from.(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		if b.Kind() == types.UntypedNil {
			return false
		}
	}
	switch from.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if from.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

// ForEachBoxedArg calls f for every argument of call whose value is
// boxed into an interface parameter, including variadic ...interface{}
// tails. Conversions (type-as-function calls) count when the target
// type is an interface.
func ForEachBoxedArg(info *types.Info, call *ast.CallExpr, f func(arg ast.Expr, param types.Type)) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion T(x): boxing iff T is an interface.
		for _, arg := range call.Args {
			if Boxes(tv.Type, info.TypeOf(arg)) {
				f(arg, tv.Type)
			}
		}
		return
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if i < sig.Params().Len()-1 || !sig.Variadic() {
			if i >= sig.Params().Len() {
				break
			}
			pt = sig.Params().At(i).Type()
		} else {
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			} else {
				pt = last
			}
			if call.Ellipsis.IsValid() {
				pt = last // s... passes the slice itself; no boxing
			}
		}
		if Boxes(pt, info.TypeOf(arg)) {
			f(arg, pt)
		}
	}
}
