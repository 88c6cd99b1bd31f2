// Package taint implements the anonlint/taint analyzer: an
// interprocedural identity-flow analysis proving the anonymity boundary.
//
// The syntactic analyzers (anonymity, regaccess) check where identity is
// *named* — a pid field, a ghost-field read inside a machine method.
// They cannot see identity *flowing*: a StepInfo.Proc read in a helper,
// returned up a call chain, and stored into a machine field three
// functions later is invisible to type-shape matching. This analyzer
// closes that gap with an explicit dataflow analysis over the
// type-checked syntax trees: every identity-bearing expression is
// tainted at its definition site, taint propagates through assignments,
// composite literals, arithmetic, slices, closures and (via bounded
// per-function summaries, iterated to a fixed point) through calls
// within the package, and a flow into machine-shaped state or a
// fingerprint input is a finding carrying the full source→sink path.
//
// Identity sources:
//
//   - ghost writer/processor fields: machine.StepInfo.{Proc,ReadFrom,
//     PrevWriter}, anonmem.ReadResult.LastWriter,
//     anonmem.WriteResult.PrevWriter;
//   - wiring and last-writer inspection: anonmem.Memory.{LastWriterAt,
//     LastWrittenBy,Wiring,Global} — the σ permutations;
//   - the proc-keyed crash mask: machine.System.CrashMask;
//   - per-processor instrumentation: sched.Instrument.{ProcSteps,
//     RegisterAccess};
//   - integer parameters whose name denotes a processor identity
//     (lintutil.IdentityName) — the conventional way schedulers hand an
//     index to a helper.
//
// Sinks — the places identity must never reach:
//
//   - a store into a field of a machine-shaped type (assignment,
//     composite literal, or inside a callee reached via summaries):
//     machine state fingerprinted by the explorer;
//   - an argument to a machine-shaped type's method or constructor
//     declared outside the package (within the package, summaries track
//     the flow precisely instead of flagging the call itself);
//   - an argument to any function or method named Fingerprint — the
//     canonicalization output. Hashing identity into a fingerprint
//     breaks orbit-invariance unless the value is mirrored with the
//     symmetry group, which only the canon package may do (and must
//     justify per call site);
//   - an argument to a state-word encoder, a method Encode or
//     EncodeRelabeled of shape func(dst []uint64, ...) []uint64: the
//     machine and register-word encoders whose output fingerprints hash.
//
// Sanitizers: there are none. Identity laundering through arithmetic,
// formatting or collections stays tainted; the only way to silence a
// finding is an individually justified "//lint:ignore anonlint/taint
// reason" at the sink. Indexing propagates taint from both the operand
// and the index: per-processor tables (steps[p]) carry identity even
// though the element value is not itself an index.
//
// The analysis is per-package and flow-insensitive within a function
// (environments are iterated to a fixed point, so ordering and loops do
// not matter); call summaries record, per function, which parameters
// reach which results and which parameters reach a sink, and are
// recomputed until stable with a bounded number of rounds.
package taint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"

	"anonshm/internal/lint/lintutil"
)

const name = "taint"

// Analyzer is the anonlint/taint analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "trace processor-identity dataflow into machine state and fingerprint inputs\n\n" +
		"Interprocedural taint analysis of the anonymity boundary: identity sources (ghost " +
		"writer fields, wiring permutations, crash masks, per-proc instrumentation, identity-named " +
		"parameters) must not flow — through locals, helper returns, closures or field stores — " +
		"into machine-shaped state or fingerprint inputs. Diagnostics render the full source→sink path.",
	Run: run,
}

// maxRounds bounds the interprocedural fixed-point iteration. Taint sets
// grow monotonically, so the iteration terminates by itself; the cap
// only guards against pathological call graphs, and equals the deepest
// helper chain a leak can cross within one package.
const maxRounds = 8

var allow string

func init() {
	Analyzer.Flags.StringVar(&allow, "allow", "",
		"comma-separated package path suffixes exempt from identity-flow checking (default: none)")
}

// taintVal is the analysis value attached to a tainted object: the
// source-rooted path that tainted it. Paths are frozen at first taint so
// diagnostics stay short and the fixed point is monotone. A hypothetical
// value (hypo) is rooted at a plain function parameter rather than a
// real identity source: it exists to discover param→result and
// param→sink flows for the summary, never to report directly, and it
// propagates only through a per-function overlay so speculative taint
// cannot leak across functions.
type taintVal struct {
	path []lintutil.PathStep
	hypo bool
}

func extend(t *taintVal, pos token.Pos, desc string) *taintVal {
	steps := make([]lintutil.PathStep, len(t.path), len(t.path)+1)
	copy(steps, t.path)
	return &taintVal{path: append(steps, lintutil.PathStep{Pos: pos, Desc: desc}), hypo: t.hypo}
}

// sinkHit is one parameter-reaches-sink record in a function summary:
// the path from the parameter to the sink inside the callee.
type sinkHit struct {
	path []lintutil.PathStep
}

// summary is the bounded interprocedural abstraction of one function.
type summary struct {
	// resultFromParam[r] lists parameter indices whose taint reaches
	// result r (receiver is parameter 0, regular params shift by one).
	resultFromParam [][]int
	// resultSource[r] is a source-rooted taint of result r arising
	// inside the body regardless of arguments, or nil.
	resultSource []*taintVal
	// paramSink[p] records that parameter p flows into a sink inside the
	// body (reported at call sites where the argument is tainted).
	paramSink map[int]*sinkHit
}

type checker struct {
	pass *analysis.Pass
	rep  *lintutil.Reporter

	funcs     map[*types.Func]*ast.FuncDecl
	summaries map[*types.Func]*summary

	// env is the package-global taint environment: parameters, locals
	// and struct fields (fields of non-machine types propagate taint
	// package-wide; machine fields are sinks instead).
	env map[types.Object]*taintVal

	// reported dedupes sink diagnostics by position.
	reported map[token.Pos]bool

	changed bool
}

func run(pass *analysis.Pass) (any, error) {
	if allow != "" && lintutil.MatchPackage(pass.Pkg.Path(), allow) {
		return nil, nil
	}
	c := &checker{
		pass:      pass,
		rep:       lintutil.NewReporter(pass, name),
		funcs:     map[*types.Func]*ast.FuncDecl{},
		summaries: map[*types.Func]*summary{},
		env:       map[types.Object]*taintVal{},
		reported:  map[token.Pos]bool{},
	}
	lintutil.WalkFiles(pass, func(f *ast.File) {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.funcs[fn] = fd
				c.summaries[fn] = &summary{paramSink: map[int]*sinkHit{}}
			}
		}
	})

	// Interprocedural fixed point: recompute every function against the
	// current summaries until nothing changes (or the round cap).
	for round := 0; round < maxRounds; round++ {
		c.changed = false
		for fn, fd := range c.funcs {
			c.analyzeFunc(fn, fd, false)
		}
		if !c.changed {
			break
		}
	}
	// Reporting pass: now that summaries and the environment are stable,
	// walk once more and emit diagnostics at sink sites.
	for fn, fd := range c.funcs {
		c.analyzeFunc(fn, fd, true)
	}
	return nil, nil
}

// setTaint records taint on an object, keeping the first path. Real
// taint lands in the package-global environment; hypothetical taint is
// confined to the current function's overlay.
func (c *checker) setTaint(st *funcState, obj types.Object, t *taintVal) {
	if obj == nil || t == nil {
		return
	}
	if t.hypo {
		if _, ok := st.overlay[obj]; ok {
			return
		}
		st.overlay[obj] = t
		return
	}
	if _, ok := c.env[obj]; ok {
		return
	}
	c.env[obj] = t
	c.changed = true
}

// taintOf looks an object up: real taint wins over hypothetical.
func (c *checker) taintOf(st *funcState, obj types.Object) *taintVal {
	if obj == nil {
		return nil
	}
	if t, ok := c.env[obj]; ok {
		return t
	}
	if t, ok := st.overlay[obj]; ok {
		return t
	}
	return nil
}

// paramIndex returns fn's parameter objects in summary order: receiver
// first (if any), then the declared parameters.
func paramObjects(fn *types.Func) []*types.Var {
	sig := fn.Type().(*types.Signature)
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// analyzeFunc runs the intra-function flow for fn, updating the global
// environment and fn's summary. When report is true, sink hits become
// diagnostics; otherwise they only feed the summary.
func (c *checker) analyzeFunc(fn *types.Func, fd *ast.FuncDecl, report bool) {
	st := &funcState{c: c, fn: fn, report: report, overlay: map[types.Object]*taintVal{}}
	// Seed parameters: identity-named integers are real sources (a
	// scheduler may hand an index in from another package); everything
	// else is seeded hypothetically so the summary learns which
	// parameters reach results and sinks.
	for _, p := range paramObjects(fn) {
		if lintutil.IdentityName.MatchString(p.Name()) && isIntegral(p.Type()) {
			c.setTaint(st, p, &taintVal{path: []lintutil.PathStep{{
				Pos:  p.Pos(),
				Desc: fmt.Sprintf("identity parameter %q of %s", p.Name(), fn.Name()),
			}}})
			continue
		}
		st.overlay[p] = &taintVal{path: []lintutil.PathStep{{
			Pos:  p.Pos(),
			Desc: fmt.Sprintf("parameter %q of %s", p.Name(), fn.Name()),
		}}, hypo: true}
	}
	// Iterate the body to a local fixed point: flow-insensitive, so a
	// couple of passes converge (taint only grows).
	for i := 0; i < 4; i++ {
		before := len(c.env) + len(st.overlay)
		changedBefore := c.changed
		ast.Inspect(fd.Body, st.visit)
		if len(c.env)+len(st.overlay) == before && c.changed == changedBefore {
			break
		}
	}
}

// funcState carries per-function context through the AST walk.
type funcState struct {
	c      *checker
	fn     *types.Func
	report bool
	// overlay holds this function's hypothetical taint (see taintVal).
	overlay map[types.Object]*taintVal
}

func (st *funcState) visit(n ast.Node) bool {
	c := st.c
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			var t *taintVal
			if len(n.Rhs) == len(n.Lhs) {
				t = c.exprTaint(st, n.Rhs[i])
			} else if len(n.Rhs) == 1 {
				// Multi-value: a call or comma-ok. Taint every LHS if
				// the RHS taints any result.
				t = c.multiValueTaint(st, n.Rhs[0], i)
			}
			if t != nil {
				c.assign(st, lhs, t)
			}
		}
	case *ast.ValueSpec:
		for i, name := range n.Names {
			var t *taintVal
			if len(n.Values) == len(n.Names) {
				t = c.exprTaint(st, n.Values[i])
			} else if len(n.Values) == 1 {
				t = c.multiValueTaint(st, n.Values[0], i)
			}
			if t != nil {
				c.setTaint(st, c.pass.TypesInfo.Defs[name], t)
			}
		}
	case *ast.RangeStmt:
		if t := c.exprTaint(st, n.X); t != nil {
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok {
					obj := c.pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = c.pass.TypesInfo.Uses[id]
					}
					c.setTaint(st, obj, extend(t, n.Pos(), "ranged over"))
				}
			}
		}
	case *ast.ReturnStmt:
		c.recordReturn(st, n)
	case *ast.CallExpr:
		c.exprTaint(st, n) // evaluate for sink checks even in statement position
	case *ast.CompositeLit:
		c.compositeTaint(st, n)
	}
	return true
}

// assign routes taint arriving at an lvalue: idents taint their object,
// field selectors either hit the machine-state sink or taint the field
// object, everything else taints the nearest addressable object.
func (c *checker) assign(st *funcState, lhs ast.Expr, t *taintVal) {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := c.pass.TypesInfo.Defs[lhs]
		if obj == nil {
			obj = c.pass.TypesInfo.Uses[lhs]
		}
		c.setTaint(st, obj, t)
	case *ast.SelectorExpr:
		sel := c.pass.TypesInfo.Selections[lhs]
		if sel != nil && sel.Kind() == types.FieldVal {
			recv := sel.Recv()
			field := sel.Obj()
			if lintutil.MachineShaped(recv) {
				c.sink(st, lhs.Sel.Pos(),
					extend(t, lhs.Sel.Pos(), fmt.Sprintf("stored in machine field %s.%s", typeName(recv), field.Name())))
				return
			}
			c.setTaint(st, field, extend(t, lhs.Sel.Pos(), fmt.Sprintf("stored in field %s.%s", typeName(recv), field.Name())))
			return
		}
		// Package-level var via selector: taint the object.
		if obj := c.pass.TypesInfo.Uses[lhs.Sel]; obj != nil {
			c.setTaint(st, obj, t)
		}
	case *ast.IndexExpr:
		c.assign(st, lhs.X, extend(t, lhs.Pos(), "stored in element"))
	case *ast.StarExpr:
		c.assign(st, lhs.X, t)
	case *ast.ParenExpr:
		c.assign(st, lhs.X, t)
	}
}

// recordReturn feeds the function summary from a return statement.
func (c *checker) recordReturn(st *funcState, ret *ast.ReturnStmt) {
	sum := c.summaries[st.fn]
	sig := st.fn.Type().(*types.Signature)
	nres := sig.Results().Len()
	if sum.resultFromParam == nil {
		sum.resultFromParam = make([][]int, nres)
		sum.resultSource = make([]*taintVal, nres)
	}
	params := paramObjects(st.fn)
	record := func(i int, t *taintVal, pos token.Pos) {
		if t.hypo {
			// Hypothetical: attribute to the rooting parameter so call
			// sites can decide.
			if pi := paramOrigin(t, params); pi >= 0 && !containsInt(sum.resultFromParam[i], pi) {
				sum.resultFromParam[i] = append(sum.resultFromParam[i], pi)
				c.changed = true
			}
			return
		}
		if sum.resultSource[i] == nil {
			sum.resultSource[i] = extend(t, pos, fmt.Sprintf("returned from %s", st.fn.Name()))
			c.changed = true
		}
	}
	for i, e := range ret.Results {
		if i >= nres {
			break
		}
		if t := c.exprTaint(st, e); t != nil {
			record(i, t, ret.Pos())
		}
	}
	// Named results assigned earlier and returned bare.
	if len(ret.Results) == 0 {
		for i := 0; i < nres; i++ {
			if r := sig.Results().At(i); r.Name() != "" {
				if t := c.taintOf(st, r); t != nil {
					record(i, t, ret.Pos())
				}
			}
		}
	}
}

// paramOrigin reports which parameter (summary index) a taint path is
// rooted at, or -1 if it is source-rooted.
func paramOrigin(t *taintVal, params []*types.Var) int {
	if len(t.path) == 0 {
		return -1
	}
	root := t.path[0].Pos
	for i, p := range params {
		if p.Pos() == root {
			return i
		}
	}
	return -1
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// sink accepts a completed flow into machine-visible state: real taint
// is reported (once per position); hypothetical taint — rooted at one of
// the current function's plain parameters — is recorded in the summary
// for call sites to judge.
func (c *checker) sink(st *funcState, pos token.Pos, t *taintVal) {
	if t.hypo {
		if pi := paramOrigin(t, paramObjects(st.fn)); pi >= 0 {
			sum := c.summaries[st.fn]
			if _, ok := sum.paramSink[pi]; !ok {
				sum.paramSink[pi] = &sinkHit{path: t.path}
				c.changed = true
			}
		}
		return
	}
	if !st.report || c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.rep.Reportf(pos,
		"processor identity flows into machine-visible state: %s — anonymous machines must not hold or hash identity (PAPER.md §2)",
		lintutil.RenderPath(c.pass.Fset, t.path))
}

// ghostSources maps (owner type, field) identity fields to package and a
// description.
var ghostSources = map[[2]string]string{
	{"StepInfo", "Proc"}:          "machine",
	{"StepInfo", "ReadFrom"}:      "machine",
	{"StepInfo", "PrevWriter"}:    "machine",
	{"ReadResult", "LastWriter"}:  "anonmem",
	{"WriteResult", "PrevWriter"}: "anonmem",
}

// methodSources maps (receiver type, method) identity-returning calls to
// their declaring package.
var methodSources = map[[2]string]string{
	{"Memory", "LastWriterAt"}:       "anonmem",
	{"Memory", "LastWrittenBy"}:      "anonmem",
	{"Memory", "Wiring"}:             "anonmem",
	{"Memory", "Global"}:             "anonmem",
	{"System", "CrashMask"}:          "machine",
	{"Instrument", "ProcSteps"}:      "sched",
	{"Instrument", "RegisterAccess"}: "sched",
}

// exprTaint computes the taint of an expression, performing source and
// sink detection along the way.
func (c *checker) exprTaint(st *funcState, e ast.Expr) *taintVal {
	switch e := e.(type) {
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = c.pass.TypesInfo.Defs[e]
		}
		return c.taintOf(st, obj)
	case *ast.SelectorExpr:
		return c.selectorTaint(st, e)
	case *ast.CallExpr:
		return c.callTaint(st, e)
	case *ast.CompositeLit:
		return c.compositeTaint(st, e)
	case *ast.BinaryExpr:
		if t := c.exprTaint(st, e.X); t != nil {
			return t
		}
		return c.exprTaint(st, e.Y)
	case *ast.UnaryExpr:
		return c.exprTaint(st, e.X)
	case *ast.StarExpr:
		return c.exprTaint(st, e.X)
	case *ast.ParenExpr:
		return c.exprTaint(st, e.X)
	case *ast.IndexExpr:
		// Taint flows from the indexed value and from the index itself:
		// a per-processor table indexed by identity yields
		// identity-correlated data.
		if t := c.exprTaint(st, e.X); t != nil {
			return t
		}
		if t := c.exprTaint(st, e.Index); t != nil {
			return extend(t, e.Pos(), "selected per-identity element")
		}
		return nil
	case *ast.SliceExpr:
		return c.exprTaint(st, e.X)
	case *ast.TypeAssertExpr:
		return c.exprTaint(st, e.X)
	case *ast.FuncLit:
		// Closure bodies are analyzed inline: captured variables share
		// objects with the enclosing function, so taint flows through
		// them without extra machinery. Sinks inside report normally.
		ast.Inspect(e.Body, st.visit)
		return nil
	}
	return nil
}

// selectorTaint handles field reads: ghost identity sources, tainted
// field objects, and tainted whole structs.
func (c *checker) selectorTaint(st *funcState, se *ast.SelectorExpr) *taintVal {
	sel := c.pass.TypesInfo.Selections[se]
	if sel == nil || sel.Kind() != types.FieldVal {
		// Package-qualified identifier or method value.
		if t := c.taintOf(st, c.pass.TypesInfo.Uses[se.Sel]); t != nil {
			return t
		}
		return nil
	}
	recv := sel.Recv()
	named := namedOf(recv)
	if named != nil {
		if pkg, ok := ghostSources[[2]string{named.Obj().Name(), se.Sel.Name}]; ok &&
			lintutil.FromPackage(named.Obj(), pkg) {
			return &taintVal{path: []lintutil.PathStep{{
				Pos:  se.Sel.Pos(),
				Desc: fmt.Sprintf("ghost identity %s.%s", named.Obj().Name(), se.Sel.Name),
			}}}
		}
	}
	if t := c.taintOf(st, sel.Obj()); t != nil {
		return extend(t, se.Sel.Pos(), fmt.Sprintf("read from field %s", se.Sel.Name))
	}
	if t := c.exprTaint(st, se.X); t != nil {
		return t
	}
	return nil
}

// callTaint handles calls: identity-returning sources, fingerprint and
// machine-boundary sinks, in-package summaries, and the conservative
// any-tainted-argument rule for everything else.
func (c *checker) callTaint(st *funcState, call *ast.CallExpr) *taintVal {
	callee := typeutil.Callee(c.pass.TypesInfo, call)

	// Argument taints (receiver of a method call counts as argument 0
	// for summary purposes).
	var recvTaint *taintVal
	if se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sel := c.pass.TypesInfo.Selections[se]; sel != nil && sel.Kind() == types.MethodVal {
			recvTaint = c.exprTaint(st, se.X)
		}
	}
	argTaints := make([]*taintVal, len(call.Args))
	var anyArg *taintVal
	for i, a := range call.Args {
		argTaints[i] = c.exprTaint(st, a)
		if anyArg == nil && argTaints[i] != nil {
			anyArg = argTaints[i]
		}
	}

	fn, _ := callee.(*types.Func)

	// Source calls: omniscient identity inspection.
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if named := namedOf(sig.Recv().Type()); named != nil {
				if pkg, ok := methodSources[[2]string{named.Obj().Name(), fn.Name()}]; ok &&
					lintutil.FromPackage(named.Obj(), pkg) {
					return &taintVal{path: []lintutil.PathStep{{
						Pos:  call.Pos(),
						Desc: fmt.Sprintf("identity inspection %s.%s", named.Obj().Name(), fn.Name()),
					}}}
				}
			}
		}
	}

	// Fingerprint sink: identity hashed into canonicalization output.
	if fn != nil && fn.Name() == "Fingerprint" {
		for i, t := range argTaints {
			if t != nil {
				c.sink(st, call.Args[i].Pos(),
					extend(t, call.Args[i].Pos(), fmt.Sprintf("hashed into fingerprint via %s", fn.Name())))
			}
		}
	}

	// Encoder sink: identity appended to the words a fingerprint hashes.
	if fn != nil && isStateEncoder(fn) {
		for i, t := range argTaints {
			if t != nil {
				c.sink(st, call.Args[i].Pos(),
					extend(t, call.Args[i].Pos(), fmt.Sprintf("encoded into fingerprinted state words via %s", fn.Name())))
			}
		}
	}

	// In-package callee: use its summary.
	if fn != nil {
		if sum, ok := c.summaries[fn]; ok {
			return c.applySummary(st, call, fn, sum, recvTaint, argTaints)
		}
	}

	// Out-of-package machine boundary: tainted argument into a machine
	// method or constructor.
	if fn != nil {
		sig := fn.Type().(*types.Signature)
		isMachineMethod := sig.Recv() != nil && lintutil.MachineShaped(sig.Recv().Type())
		isConstructor := false
		for i := 0; i < sig.Results().Len(); i++ {
			if lintutil.MachineShaped(sig.Results().At(i).Type()) {
				isConstructor = true
				break
			}
		}
		if isMachineMethod || isConstructor {
			for i, t := range argTaints {
				if t != nil {
					kind := "machine method"
					if isConstructor {
						kind = "machine constructor"
					}
					c.sink(st, call.Args[i].Pos(),
						extend(t, call.Args[i].Pos(), fmt.Sprintf("passed into %s %s", kind, fn.Name())))
				}
			}
		}
	}

	// Unknown or external callee: conservative propagation — any tainted
	// input taints the call's value. There are no sanitizers.
	if recvTaint != nil {
		return extend(recvTaint, call.Pos(), fmt.Sprintf("through call %s", calleeName(callee, call)))
	}
	if anyArg != nil {
		return extend(anyArg, call.Pos(), fmt.Sprintf("through call %s", calleeName(callee, call)))
	}
	return nil
}

// isStateEncoder reports whether fn is a state-word encoder — a method
// named Encode or EncodeRelabeled of the append shape
// func(dst []uint64, ...) []uint64 — whose output the canon layer
// hashes into fingerprints. The shape keeps unrelated Encode methods
// (JSON encoders, report writers) out of the sink set.
func isStateEncoder(fn *types.Func) bool {
	if fn.Name() != "Encode" && fn.Name() != "EncodeRelabeled" {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || sig.Params().Len() == 0 || sig.Results().Len() != 1 {
		return false
	}
	words := types.NewSlice(types.Typ[types.Uint64])
	return types.Identical(sig.Params().At(0).Type(), words) &&
		types.Identical(sig.Results().At(0).Type(), words)
}

// applySummary propagates taint through an in-package call using the
// callee's summary: param→sink hits report at this call site with the
// concatenated path, param→result and source→result taints become the
// call's value.
func (c *checker) applySummary(st *funcState, call *ast.CallExpr, fn *types.Func, sum *summary, recvTaint *taintVal, argTaints []*taintVal) *taintVal {
	argAt := func(pi int) *taintVal {
		// Summary index 0 is the receiver when fn has one.
		if fn.Type().(*types.Signature).Recv() != nil {
			if pi == 0 {
				return recvTaint
			}
			pi--
		}
		if pi >= 0 && pi < len(argTaints) {
			return argTaints[pi]
		}
		return nil
	}
	for pi, hit := range sum.paramSink {
		if t := argAt(pi); t != nil {
			full := extend(t, call.Pos(), fmt.Sprintf("passed to %s", fn.Name()))
			full = &taintVal{path: append(full.path, hit.path[1:]...), hypo: full.hypo}
			c.sink(st, call.Pos(), full)
		}
	}
	var out *taintVal
	for r := 0; r < len(sum.resultSource); r++ {
		if s := sum.resultSource[r]; s != nil {
			out = s
			break
		}
		for _, pi := range sum.resultFromParam[r] {
			if t := argAt(pi); t != nil {
				out = extend(t, call.Pos(), fmt.Sprintf("returned by %s", fn.Name()))
				break
			}
		}
		if out != nil {
			break
		}
	}
	return out
}

// compositeTaint taints fields assigned in composite literals and
// reports machine-typed literals built from identity.
func (c *checker) compositeTaint(st *funcState, cl *ast.CompositeLit) *taintVal {
	t := c.pass.TypesInfo.TypeOf(cl)
	isMachine := lintutil.MachineShaped(t)
	var out *taintVal
	for _, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			vt := c.exprTaint(st, kv.Value)
			if vt == nil {
				continue
			}
			key, _ := kv.Key.(*ast.Ident)
			fieldName := "?"
			if key != nil {
				fieldName = key.Name
			}
			if isMachine {
				c.sink(st, kv.Value.Pos(),
					extend(vt, kv.Value.Pos(), fmt.Sprintf("stored in machine field %s.%s", typeName(t), fieldName)))
				continue
			}
			if key != nil {
				if obj := c.pass.TypesInfo.Uses[key]; obj != nil {
					c.setTaint(st, obj, extend(vt, kv.Value.Pos(), fmt.Sprintf("stored in field %s.%s", typeName(t), fieldName)))
				}
			}
			if out == nil {
				out = vt
			}
			continue
		}
		if vt := c.exprTaint(st, el); vt != nil {
			if isMachine {
				c.sink(st, el.Pos(), extend(vt, el.Pos(), fmt.Sprintf("stored in machine literal %s", typeName(t))))
				continue
			}
			if out == nil {
				out = vt
			}
		}
	}
	return out
}

// multiValueTaint resolves taint of result i of a multi-value RHS.
func (c *checker) multiValueTaint(st *funcState, rhs ast.Expr, i int) *taintVal {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		// Comma-ok forms (map index, type assert, channel receive).
		if i == 0 {
			return c.exprTaint(st, rhs)
		}
		return nil
	}
	// For calls, callTaint already merges all results into one taint
	// value; apply it to every LHS. Precise per-result splitting is not
	// worth the complexity for a linter that over-approximates anyway.
	return c.exprTaint(st, call)
}

func isIntegral(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func namedOf(t types.Type) *types.Named {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func typeName(t types.Type) string {
	if n := namedOf(t); n != nil {
		return n.Obj().Name()
	}
	return t.String()
}

func calleeName(obj types.Object, call *ast.CallExpr) string {
	if obj != nil {
		return obj.Name()
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		return id.Name
	}
	return "func"
}
