package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"testing"
)

const dfSrc = `package df

var G int
var H int

func ReadsG() int { return G }

func WritesG() { G = 1 }

func DefUse() int {
	x := 1
	x = 2
	y := x + x
	return y
}

func AddrTaken() *int {
	v := 0
	return &v
}

func Captured() func() int {
	n := 0
	return func() int { n++; return n }
}

type T struct{ a, b int }

func FieldWrite(t *T) {
	t.a = 1
	t.b++
}

func (t *T) Set() { t.a = 1 }

func ViaHelper(t *T) { FieldWrite(t) }

func CallsMethod(t *T) { t.Set() }

func ReadsParam(t *T) int { return t.a }

func Stored() {
	v := 3
	G = v
}

func take(any) {}

func Boxed() {
	v := 5
	take(v)
}

func bump(p *int) { *p++ }

func Outer() func() {
	p := new(int)
	return func() { bump(p) }
}

func Variadic(args ...any) {}

func CallsVariadic(t *T) {
	v := 1
	Variadic(v, t)
}
`

func buildDataFlow(t *testing.T) (*DataFlow, *CallGraph) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := loadMemPkgs(t, fset, []memPkg{{"df", dfSrc}})
	g := BuildCallGraph(pkgs)
	return NewDataFlow(g), g
}

func sumOf(t *testing.T, df *DataFlow, g *CallGraph, name string) *FuncSummary {
	t.Helper()
	s := df.Summary(nodeByName(t, g, "df", name))
	if s == nil {
		t.Fatalf("no summary for %s", name)
	}
	return s
}

func varNamed(t *testing.T, m map[*types.Var][]token.Pos, name string) *types.Var {
	t.Helper()
	for v := range m {
		if v.Name() == name {
			return v
		}
	}
	t.Fatalf("no variable %q in map", name)
	return nil
}

func TestDataFlowDefUseChains(t *testing.T) {
	df, g := buildDataFlow(t)
	s := sumOf(t, df, g, "DefUse")
	x := varNamed(t, s.Defs, "x")
	if got := len(s.Defs[x]); got != 2 {
		t.Errorf("defs(x) = %d, want 2 (declaration + reassignment)", got)
	}
	if got := len(s.Uses[x]); got != 2 {
		t.Errorf("uses(x) = %d, want 2 (x + x)", got)
	}
	y := varNamed(t, s.Defs, "y")
	if len(s.Defs[y]) != 1 || len(s.Uses[y]) != 1 {
		t.Errorf("defs(y)=%d uses(y)=%d, want 1 and 1", len(s.Defs[y]), len(s.Uses[y]))
	}
	// Positions are sorted: the definition precedes every use.
	if s.Defs[x][0] >= s.Uses[x][0] {
		t.Error("first def of x does not precede its first use")
	}
}

func escapeOf(s *FuncSummary, name string) EscapeReason {
	for v, r := range s.Escapes {
		if v.Name() == name {
			return r
		}
	}
	return EscNone
}

func TestDataFlowEscapes(t *testing.T) {
	df, g := buildDataFlow(t)
	if got := escapeOf(sumOf(t, df, g, "AddrTaken"), "v"); got != EscAddrTaken {
		t.Errorf("AddrTaken v: escape = %v, want address-taken", got)
	}
	if got := escapeOf(sumOf(t, df, g, "Captured"), "n"); got != EscCaptured {
		t.Errorf("Captured n: escape = %v, want captured", got)
	}
	if got := escapeOf(sumOf(t, df, g, "Boxed"), "v"); got != EscBoxed {
		t.Errorf("Boxed v: escape = %v, want boxed", got)
	}
	if got := escapeOf(sumOf(t, df, g, "Stored"), "v"); got != EscStored {
		t.Errorf("Stored v: escape = %v, want stored", got)
	}
	if got := escapeOf(sumOf(t, df, g, "DefUse"), "x"); got != EscNone {
		t.Errorf("DefUse x: escape = %v, want none", got)
	}
}

func TestDataFlowFieldAndPackageWrites(t *testing.T) {
	df, g := buildDataFlow(t)
	fw := sumOf(t, df, g, "FieldWrite")
	var fields []string
	for f := range fw.FieldWrites {
		fields = append(fields, f.Name())
	}
	if len(fields) != 2 {
		t.Errorf("FieldWrite fields written = %v, want a and b", fields)
	}
	wg := sumOf(t, df, g, "WritesG")
	if len(wg.PkgWrites) != 1 || len(wg.PkgReads) != 0 {
		t.Errorf("WritesG: pkg writes=%d reads=%d, want 1 and 0 (LHS is not a read)", len(wg.PkgWrites), len(wg.PkgReads))
	}
	rg := sumOf(t, df, g, "ReadsG")
	if len(rg.PkgReads) != 1 || len(rg.PkgWrites) != 0 {
		t.Errorf("ReadsG: pkg reads=%d writes=%d, want 1 and 0", len(rg.PkgReads), len(rg.PkgWrites))
	}
}

// enclosedLit returns the one function literal enclosed by fn.
func enclosedLit(t *testing.T, df *DataFlow, g *CallGraph, fn string) *FuncSummary {
	t.Helper()
	var lit *CGNode
	for _, e := range nodeByName(t, g, "df", fn).Out {
		if e.Kind == EdgeEncloses {
			lit = e.To
		}
	}
	if lit == nil {
		t.Fatalf("%s has no enclosed literal", fn)
	}
	s := df.Summary(lit)
	if s == nil {
		t.Fatalf("no summary for %s's literal", fn)
	}
	return s
}

func TestDataFlowFreeWrites(t *testing.T) {
	df, g := buildDataFlow(t)
	names := func(vs map[*types.Var]token.Pos) map[string]bool {
		out := map[string]bool{}
		for v := range vs {
			out[v.Name()] = true
		}
		return out
	}
	// Captured's literal increments its captured n: a direct free write.
	if s := enclosedLit(t, df, g, "Captured"); !names(s.FreeWrites)["n"] {
		t.Errorf("literal doing n++ on captured n has FreeWrites %v, want n", names(s.FreeWrites))
	}
	// Outer's literal only passes captured p onward: p is free, but the
	// summary is intraprocedural, so no write is recorded.
	s := enclosedLit(t, df, g, "Outer")
	free := false
	for _, v := range s.Free {
		if v.Name() == "p" {
			free = true
		}
	}
	if !free {
		t.Error("p not recorded as a free variable of the literal")
	}
	if len(s.FreeWrites) != 0 {
		t.Errorf("literal that only reads captured p has FreeWrites %v, want none", names(s.FreeWrites))
	}
}

func TestForEachBoxedArg(t *testing.T) {
	df, g := buildDataFlow(t)
	n := nodeByName(t, g, "df", "CallsVariadic")
	info := n.Pkg.TypesInfo
	var boxed []string
	ast.Inspect(n.Body(), func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			ForEachBoxedArg(info, call, func(arg ast.Expr, _ types.Type) {
				boxed = append(boxed, ExprString(arg))
			})
		}
		return true
	})
	// v (an int) boxes into ...any; t (a pointer) is pointer-shaped and
	// does not allocate.
	if len(boxed) != 1 || boxed[0] != "v" {
		t.Errorf("boxed args in CallsVariadic = %v, want [v]", boxed)
	}
	_ = df
}
