// Package observerorder enforces the observer contracts of the
// correctness harness (internal/check).
//
// Rule 1 (everywhere): a call through a value of any named `Observer`
// interface type must be known non-nil — observation is optional, and
// an unguarded hook is a latent panic on every configuration that
// doesn't install the harness. Layers keep their subscribers in a
// slice of Observers and fan each event out over it, so the guard
// lives where a subscriber is inserted:
//
//   - a hook call is accepted when its receiver is the value variable
//     of an enclosing `range` over a slice of an Observer type, or when
//     it sits under an enclosing `if x != nil { ... x.Hook(...) }`
//     (possibly with further && conjuncts), matching the receiver
//     expression structurally;
//   - every value `append`ed to a slice of an Observer type must sit
//     under `if v != nil` for that value — a nil subscriber (or a typed
//     nil, which converts to a non-nil interface) would otherwise reach
//     every later hook.
//
// Code using other dominance patterns (early return) must carry a
// //lint:allow observerorder directive.
//
// Rule 2 (package pagecache only): in any function that both invokes
// the PageInserted observer hook and dispatches kprobes
// (kprobe.Registry.Fire), PageInserted must come first. An attached
// eBPF program can recursively insert further pages, so firing the
// probe first delivers cache events to the harness out of causal
// order — the exact bug PR 3 found at runtime.
package observerorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"snapbpf/internal/analysis/allow"
	"snapbpf/internal/analysis/lintutil"
)

// Analyzer is the observerorder pass.
const name = "observerorder"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "require nil-guarded observer hooks and subscriptions, and PageInserted before kprobe dispatch in pagecache",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// isObserver reports whether t is a named interface type called
// Observer, whichever package defines it.
func isObserver(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Name() != "Observer" {
		return false
	}
	_, isIface := n.Underlying().(*types.Interface)
	return isIface
}

// isObserverSlice reports whether t is a slice of an Observer type.
func isObserverSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	return ok && isObserver(sl.Elem())
}

// fnEvent is a call of interest with its enclosing function node.
type fnEvent struct {
	fn  ast.Node // *ast.FuncDecl or *ast.FuncLit
	pos token.Pos
}

func run(pass *analysis.Pass) (interface{}, error) {
	tr := allow.New(pass, name)
	defer tr.Finish()

	inPagecache := lintutil.PkgBase(pass.Pkg.Path()) == "pagecache"
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	var fires, inserts []fnEvent
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		call := n.(*ast.CallExpr)
		if isAppend(pass, call) && len(call.Args) > 1 && !call.Ellipsis.IsValid() &&
			isObserverSlice(pass.TypesInfo.TypeOf(call.Args[0])) {
			for _, v := range call.Args[1:] {
				if !guarded(pass, stack, v) {
					vs := lintutil.ExprString(pass.Fset, v)
					tr.Reportf(v.Pos(),
						"observer %s is appended to %s without a nil guard; wrap it in `if %s != nil { ... }`",
						vs, lintutil.ExprString(pass.Fset, call.Args[0]), vs)
				}
			}
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recvT := pass.TypesInfo.TypeOf(sel.X)
		if isObserver(recvT) {
			if !rangeValue(pass, stack, sel.X) && !guarded(pass, stack, sel.X) {
				tr.Reportf(call.Pos(),
					"observer hook %s.%s is not nil-guarded; wrap it in `if %s != nil { ... }`",
					lintutil.ExprString(pass.Fset, sel.X), sel.Sel.Name,
					lintutil.ExprString(pass.Fset, sel.X))
			}
			if inPagecache && sel.Sel.Name == "PageInserted" {
				inserts = append(inserts, fnEvent{enclosingFunc(stack), call.Pos()})
			}
		}
		if inPagecache && sel.Sel.Name == "Fire" &&
			lintutil.IsNamed(recvT, "kprobe", "Registry", true) {
			fires = append(fires, fnEvent{enclosingFunc(stack), call.Pos()})
		}
		return true
	})

	// Rule 2: within each function containing both, every kprobe
	// dispatch must follow the first PageInserted invocation.
	sort.Slice(fires, func(i, j int) bool { return fires[i].pos < fires[j].pos })
	for _, f := range fires {
		first := token.NoPos
		for _, in := range inserts {
			if in.fn == f.fn && (first == token.NoPos || in.pos < first) {
				first = in.pos
			}
		}
		if first != token.NoPos && f.pos < first {
			tr.Reportf(f.pos,
				"kprobe dispatch precedes the PageInserted observer in this function; observers must see cache events in causal order (fire PageInserted before Registry.Fire)")
		}
	}
	return nil, nil
}

// enclosingFunc returns the innermost function declaration or literal
// on the stack, or nil at file scope.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// isAppend reports whether call invokes the append builtin.
func isAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// rangeValue reports whether recv is the value variable of an
// enclosing range over a slice of an Observer type: the subscriber
// list was nil-guarded when each element was appended.
func rangeValue(pass *analysis.Pass, stack []ast.Node, recv ast.Expr) bool {
	id, ok := recv.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(id)
	for i := len(stack) - 2; i >= 0; i-- {
		rng, ok := stack[i].(*ast.RangeStmt)
		if !ok || stack[i+1] != rng.Body {
			continue
		}
		v, ok := rng.Value.(*ast.Ident)
		if ok && obj != nil && pass.TypesInfo.ObjectOf(v) == obj {
			return isObserverSlice(pass.TypesInfo.TypeOf(rng.X))
		}
	}
	return false
}

// guarded reports whether the call at the top of stack sits inside the
// then-branch of an if whose condition includes `x != nil`, where x is
// structurally equal to recv.
func guarded(pass *analysis.Pass, stack []ast.Node, recv ast.Expr) bool {
	want := lintutil.ExprString(pass.Fset, recv)
	for i := len(stack) - 2; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok || stack[i+1] != ifs.Body {
			continue
		}
		if condGuards(pass, ifs.Cond, want) {
			return true
		}
	}
	return false
}

// condGuards reports whether cond (or any && conjunct of it) is
// `want != nil` or `nil != want`.
func condGuards(pass *analysis.Pass, cond ast.Expr, want string) bool {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return condGuards(pass, e.X, want)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			return condGuards(pass, e.X, want) || condGuards(pass, e.Y, want)
		case token.NEQ:
			x := lintutil.ExprString(pass.Fset, e.X)
			y := lintutil.ExprString(pass.Fset, e.Y)
			return (x == want && y == "nil") || (y == want && x == "nil")
		}
	}
	return false
}
