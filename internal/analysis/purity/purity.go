// Package purity closes the helper-function laundering hole left by
// the nondeterminism analyzer: that rule checks only the simulation
// packages' own files, so a protected package can "launder" a wall
// clock by calling a helper in an unprotected package (or a chain of
// them) and nondeterminism never sees it.
//
// Purity is interprocedural. It roots the analysis at every function
// value registered as a simulation callback — the func() argument of
// any exported repro/internal/sim function or method whose last
// parameter is a func() (Schedule, ScheduleTagged, After, AfterTagged,
// Timer.Init, RestoreEvent) — walks the module call graph, and requires
// every transitively reachable function, in any package, to stay pure:
// no wall clocks or environment lookups (the nondeterminism call
// tables, applied transitively), no calls into math/rand, no writes to
// package-level variables, and no reads of package-level variables
// that some function in the module mutates. Each finding includes the
// call chain that makes the impure site reachable, so the report is
// actionable even when the violation is three helpers deep.
package purity

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/nondeterminism"
)

// simPkg is the package whose callback registrars root the analysis.
const simPkg = "repro/internal/sim"

// isRegistrar reports whether fn registers a simulation callback: it
// is exported from simPkg and its last parameter is a func(). Deriving
// the set instead of listing it means a new registrar is covered the
// moment it is declared.
func isRegistrar(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != simPkg || !fn.Exported() {
		return false
	}
	params := fn.Type().(*types.Signature).Params()
	if params.Len() == 0 {
		return false
	}
	cb, ok := params.At(params.Len() - 1).Type().(*types.Signature)
	return ok && cb.Params().Len() == 0 && cb.Results().Len() == 0
}

// randPkgs are packages any call into which is impure, matching the
// nondeterminism import ban transitively.
var randPkgs = []string{"math/rand", "math/rand/v2"}

// Analyzer is the interprocedural purity rule.
var Analyzer = &framework.Analyzer{
	Name: "purity",
	Doc: "require every function reachable from a sim.Engine callback to be deterministic\n\n" +
		"Interprocedural companion to nondeterminism: event callbacks (the func() argument of\n" +
		"every exported repro/internal/sim registrar: Schedule/After and their Tagged forms,\n" +
		"Timer.Init, RestoreEvent) and everything they transitively call — in any\n" +
		"package, not just the protected trees — must avoid wall clocks, env lookups, math/rand,\n" +
		"writes to package-level variables, and reads of package-level variables mutated\n" +
		"anywhere in the module. Diagnostics carry the call chain from the callback.",
	RunModule: run,
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(filepath.Base(fset.Position(f.Pos()).Filename), "_test.go")
}

// collectMutated returns every package-level variable some non-test
// file in the module assigns, increments, or takes the address of.
// Package-level initializers are declarations, not mutations, and do
// not count.
func collectMutated(pass *framework.ModulePass) map[*types.Var]bool {
	mutated := make(map[*types.Var]bool)
	for _, pkg := range pass.Pkgs {
		info := pkg.TypesInfo
		for _, f := range pkg.Files {
			if isTestFile(pass.Fset, f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if _, v := framework.RootPkgVar(info, lhs); v != nil {
							mutated[v] = true
						}
					}
				case *ast.IncDecStmt:
					if _, v := framework.RootPkgVar(info, n.X); v != nil {
						mutated[v] = true
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						if _, v := framework.RootPkgVar(info, n.X); v != nil {
							mutated[v] = true
						}
					}
				}
				return true
			})
		}
	}
	return mutated
}

// collectRoots finds every callback registered at a registrar call
// site in a non-test file and resolves it to call-graph nodes (through
// function-typed variables and method values when needed, which is
// what catches the `var tick func(); tick = func(){...}; After(d,
// tick)` self-rearming pattern and `t.Init(tag, pinned, c.tick)`).
func collectRoots(pass *framework.ModulePass) []*framework.CGNode {
	var roots []*framework.CGNode
	have := make(map[*framework.CGNode]bool)
	for _, pkg := range pass.Pkgs {
		info := pkg.TypesInfo
		for _, f := range pkg.Files {
			if isTestFile(pass.Fset, f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := info.Uses[sel.Sel].(*types.Func)
				if !ok || !isRegistrar(fn) {
					return true
				}
				cb := call.Args[len(call.Args)-1]
				for _, node := range pass.Graph.NodesForValue(info, cb) {
					if !have[node] {
						have[node] = true
						roots = append(roots, node)
					}
				}
				return true
			})
		}
	}
	return roots
}

func run(pass *framework.ModulePass) error {
	mutated := collectMutated(pass)
	roots := collectRoots(pass)
	if len(roots) == 0 {
		return nil
	}
	seen := pass.Graph.Reach(roots)

	nodes := make([]*framework.CGNode, 0, len(seen))
	for n := range seen {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Pos() < nodes[j].Pos() })

	forbidden := nondeterminism.ForbiddenCalls()
	randWhy := nondeterminism.ForbiddenImports()
	reported := make(map[token.Pos]bool)
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}

	for _, node := range nodes {
		chain := strings.Join(framework.Chain(seen, node), " -> ")
		info := node.Pkg.TypesInfo
		// Write targets already reported as writes; their identifiers
		// must not re-trigger the mutated-read check.
		writeTargets := make(map[*ast.Ident]bool)
		ast.Inspect(node.Body(), func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if g := pass.Graph; g.Lits[n] != nil {
					return false // its own node; scanned separately if reachable
				}
			case *ast.CallExpr:
				if pkgPath, name := framework.PkgFunc(info, n.Fun); pkgPath != "" {
					if why, ok := forbidden[pkgPath][name]; ok {
						report(n.Pos(), "%s.%s reachable from sim.Engine callback (%s): %s",
							pkgPath, name, chain, why)
						return true
					}
					for _, rp := range randPkgs {
						if pkgPath == rp {
							report(n.Pos(), "call into %s reachable from sim.Engine callback (%s): %s",
								pkgPath, chain, randWhy[rp])
							return true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if id, v := framework.RootPkgVar(info, lhs); v != nil {
						writeTargets[id] = true
						report(n.Pos(), "write to package-level %s reachable from sim.Engine callback (%s): scheduled callbacks must not mutate global state",
							v.Name(), chain)
					}
				}
			case *ast.IncDecStmt:
				if id, v := framework.RootPkgVar(info, n.X); v != nil {
					writeTargets[id] = true
					report(n.Pos(), "write to package-level %s reachable from sim.Engine callback (%s): scheduled callbacks must not mutate global state",
						v.Name(), chain)
				}
			case *ast.Ident:
				if writeTargets[n] {
					return true
				}
				if v, ok := info.Uses[n].(*types.Var); ok && framework.IsPkgLevel(v) && mutated[v] {
					report(n.Pos(), "read of mutated package-level %s reachable from sim.Engine callback (%s): its value depends on event mutation order",
						v.Name(), chain)
				}
			}
			return true
		})
	}
	return nil
}
