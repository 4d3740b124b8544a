package shardmanager

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// onlyTests lists what non-test code under internal/ declares and only tests
// reach, keyed pkg.Name or pkg.Type.Name. Each entry is a driver or probe of
// behaviour other than its own, and its reason names that behaviour (DESIGN §4
// "Entry points"); anything else that only tests reach goes, with the tests
// that checked only it.
var onlyTests = map[string]string{
	"allocator.FormatMoves":                 "what recorded_test.go compares, row by row",
	"apps.BusEvent.Count":                   "only DataBus.Publish's test callers build a BusEvent (see apps.DataBus.Publish; ROADMAP 20)",
	"apps.BusEvent.Key":                     "only DataBus.Publish's test callers build a BusEvent (see apps.DataBus.Publish; ROADMAP 20)",
	"apps.BusEvent.Shard":                   "only DataBus.Publish's test callers build a BusEvent (see apps.DataBus.Publish; ROADMAP 20)",
	"apps.DataBus.Publish":                  "the stream app's only input: the stream-processor tests append the events a new owner replays",
	"apps.QueueOpDequeue":                   "the consuming half of the queue app that Fig 17/18 and rolling_upgrade run; no run dequeues yet, and ROADMAP 6(a)'s no-loss checker needs one that does",
	"apps.StreamOpPoke":                     "the stream app's consume request; Fig 20 runs the app but sends it none, and ROADMAP 6(a)'s offset checker needs a run that does",
	"apps.StreamOpQuery":                    "the stream app's read request (see apps.StreamOpPoke)",
	"appserver.PhaseNone":                   "the phase every replica record is created in (&replica{}): each deployment's first grant to a server reads it",
	"appserver.Server.Shards":               "probe of what a server holds: the orchestrator's restore and role tests and the chaos test compare it with the placement",
	"coord.Stat.Ephemeral":                  "the node metadata Get answers with: the session tests check an ephemeral node by it",
	"coord.Stat.Version":                    "the versioned-write contract: TestVersionCAS and the model test check Set's compare-and-swap by it",
	"discovery.FixedDelay":                  "pins propagation delay so tests can count events",
	"discovery.Subscription.Cancel":         "drives the store's reclamation behind the slowest cursor",
	"discovery.View.Map":                    "probe of what the store holds at a version: the publish and delta tests compare it with the orchestrator's snapshot",
	"discovery.View.Replicas":               "the by-name read FuzzVersionedStore and routing's reference picker check the Cell reads against",
	"experiments.TortureRun.Deployment":     "reaches a torture world's metrics: the audit integration test reads its fence and publish-refusal counters",
	"orchestrator.Orchestrator.Stop":        "drives §6.2's control-plane outage (TestControlPlaneOutageDoesNotTakeAppDown)",
	"orchestrator.Orchestrator.solved":      "the test seam that compares the kept allocation problem with a fresh one (TestMemoReplaysWhatAFreshSolveGives)",
	"rpcnet.Network.Delay":                  "probe of the latency model and injected link faults",
	"rpcnet.Network.Dropped":                "probe of injected drops: the rpcnet tests count them",
	"rpcnet.Network.Messages":               "probe of what the fabric delivered: routing's terminal-path rows and the rpcnet tests count messages by it",
	"rpcnet.Network.Partitioned":            "probe of the fault injector's link state",
	"rpcnet.Network.Reachable":              "probe of endpoint registration and revert",
	"sim.Loop.Run":                          "drives a hand-built world until its queue drains (the rpcnet, appserver, audit, sim and simprof tests)",
	"sim.RNG.Perm":                          "draws propertyWorld's inputs: recorded_test.go's rows are a function of its draw order",
	"solver.Move.From":                      "the search's step record: TestSolveDeterministicForSeed compares runs by it",
	"solver.Move.To":                        "the search's step record (see solver.Move.From)",
	"solver.Options.EvalBudget":             "the deterministic stop the solver tests and benchmarks set; making it a constant is recorded, not done (DESIGN §4 Options)",
	"trace.Span.Attr":                       "probe of span attributes: the trace, experiment and orchestrator tests check migration spans by it",
	"trace.Tracer.FindSpans":                "probe of span parentage in the experiment trace tests",
	"workload.AppProfile.RegionPreferences": "its write draws from the Figs 1-16 demographics stream, so it stays until that stream is re-recorded",
}

// TestNothingOnlyTestsReach is the caller gate. It type-checks the module's
// non-test code and fails when a function, method, package-level
// const/type/var or struct field declared under internal/ has no user in
// non-test code under internal/, cmd/, examples/ or bench/, when a field is
// only ever written or never written (a constant that a zero value states),
// or when an onlyTests entry has a user now or is gone.
// Names resolve by type, so a method whose name another symbol shares is
// judged on its own. What counts as use beyond a named reference:
//   - a method implements an interface method that non-test code calls, or an
//     interface the standard library declares (String, Error, Len, ...);
//   - a field with a struct tag is read (encoding/json reads it);
//   - the fields of a struct used as a map key are read (key equality);
//   - a field on an instantiated generic type is its origin's field.
//
// A reference inside the item's own declaration or body does not count, nor
// does a method's receiver or a read in the right-hand side of an assignment
// to the same field (x.f = append(x.f, v) only writes f). A field is written
// by an assignment or increment to or through it (x.f.n++), a delete from it,
// a composite-literal key, and, as a read too, by taking its address: &x.f, or
// a pointer-receiver method called on it (x.mu.Lock()) or through a field
// embedded in it. Through a pointer a method call only reads (x.loop.Now()
// reads loop). Matching is not producing: a package-level constant that
// non-test code only compares against, as a case label or an operand of == or
// !=, selects a branch that no run takes, and counts as unused.
func TestNothingOnlyTestsReach(t *testing.T) {
	m := loadModule(t, "internal", "cmd", "examples", "bench")
	found := m.unreached("internal/")

	var problems []string
	for _, key := range sortedKeys(found) {
		if _, ok := onlyTests[key]; !ok {
			problems = append(problems, fmt.Sprintf("%s: %s", found[key], key))
		}
	}
	for _, key := range sortedKeys(onlyTests) {
		if _, ok := found[key]; !ok {
			problems = append(problems, fmt.Sprintf("onlyTests entry %s has a non-test user now, or is gone", key))
		}
	}
	if len(problems) > 0 {
		t.Errorf("the caller gate and the onlyTests list disagree (DESIGN §4 \"Entry points\": delete what only "+
			"tests reach, with the tests that checked only it, or list it with the behaviour it drives or probes):\n\t%s",
			strings.Join(problems, "\n\t"))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

const modulePath = "shardmanager"

// module is the module's non-test code, parsed and type-checked together so
// that every reference resolves to the one object it names.
type module struct {
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*pkg // by import path
}

type pkg struct {
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loadModule parses the non-test files of every package under roots and
// type-checks them, the standard library from source.
func loadModule(t *testing.T, roots ...string) *module {
	t.Helper()
	fset := token.NewFileSet()
	m := &module{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*pkg{},
	}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() && d.Name() == "testdata" {
				return err
			}
			name := d.Name()
			if d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			p := m.pkgs[modulePath+"/"+dir]
			if p == nil {
				p = &pkg{dir: dir}
				m.pkgs[modulePath+"/"+dir] = p
			}
			p.files = append(p.files, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for path := range m.pkgs {
		if _, err := m.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func (m *module) Import(path string) (*types.Package, error) {
	p := m.pkgs[path]
	if p == nil {
		return m.std.ImportFrom(path, "", 0)
	}
	if p.types == nil {
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: m}
		tp, err := conf.Check(path, m.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.types = tp
	}
	return p.types, nil
}

// decl is one declaration the gate judges.
type decl struct {
	key      string
	pos, end token.Pos // its own declaration or body
	field    bool
	used     bool // a non-test reference (for a field: a write)
	read     bool // a field only
}

// origin maps an object on an instantiated generic type to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Var:
		return o.Origin()
	case *types.Func:
		return o.Origin()
	}
	return obj
}

// unreached returns, by key, what is declared in packages under prefix and has
// no non-test user ("no non-test user"), or is a field only ever written
// ("only written") or read and never written ("never written").
func (m *module) unreached(prefix string) map[string]string {
	decls := map[types.Object]*decl{}
	for _, p := range m.pkgs {
		if strings.HasPrefix(p.dir+"/", prefix) {
			m.declare(p, decls)
		}
	}
	ifaceCalls := map[types.Object]bool{}
	for _, p := range m.pkgs {
		m.use(p, decls, ifaceCalls)
	}
	m.implemented(decls, ifaceCalls)

	out := map[string]string{}
	for _, d := range decls {
		switch {
		case !d.used && !d.read:
			out[d.key] = m.fset.Position(d.pos).String() + ": no non-test user"
		case d.field && !d.read:
			out[d.key] = m.fset.Position(d.pos).String() + ": only written"
		case d.field && !d.used:
			out[d.key] = m.fset.Position(d.pos).String() + ": never written"
		}
	}
	return out
}

// declare records p's package-level declarations, methods, struct fields and
// interface methods.
func (m *module) declare(p *pkg, decls map[types.Object]*decl) {
	name := p.types.Name()
	add := func(key string, id *ast.Ident, pos, end token.Pos) *decl {
		obj := p.info.Defs[id]
		if obj == nil || id.Name == "_" {
			return nil
		}
		d := &decl{key: name + "." + key, pos: pos, end: end}
		decls[obj] = d
		return d
	}
	// members records the fields and interface methods in n, owned by owner.
	var members func(n ast.Node, owner string)
	members = func(n ast.Node, owner string) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				members(n.Type, n.Name.Name)
				return false
			case *ast.StructType:
				for _, f := range n.Fields.List {
					ids := f.Names
					if len(ids) == 0 {
						ids = []*ast.Ident{embeddedIdent(f.Type)}
					}
					for _, id := range ids {
						if d := add(owner+"."+id.Name, id, id.Pos(), id.End()); d != nil {
							d.field = true
							d.read = f.Tag != nil
						}
					}
				}
			case *ast.InterfaceType:
				for _, f := range n.Methods.List {
					for _, id := range f.Names {
						add(owner+"."+id.Name, id, id.Pos(), id.End())
					}
				}
			}
			return true
		})
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := d.Name.Name
				if d.Recv != nil {
					key = embeddedIdent(d.Recv.List[0].Type).Name + "." + key
				} else if key == "init" || key == "main" {
					continue
				}
				add(key, d.Name, d.Pos(), d.End())
				if d.Body != nil {
					members(d.Body, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, s.Name, s.Pos(), s.End())
						members(s.Type, s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id.Name, id, s.Pos(), s.End())
						}
						for _, v := range s.Values {
							members(v, s.Names[0].Name)
						}
					}
				}
			}
		}
	}
}

// embeddedIdent is the type name in an embedded field's or a receiver's type.
func embeddedIdent(x ast.Expr) *ast.Ident {
	switch x := x.(type) {
	case *ast.StarExpr:
		return embeddedIdent(x.X)
	case *ast.SelectorExpr:
		return x.Sel
	case *ast.IndexExpr:
		return embeddedIdent(x.X)
	case *ast.IndexListExpr:
		return embeddedIdent(x.X)
	}
	return x.(*ast.Ident)
}

// use marks what p's code references, and records the interface methods it
// calls.
func (m *module) use(p *pkg, decls map[types.Object]*decl, ifaceCalls map[types.Object]bool) {
	info := p.info
	read := func(obj types.Object, write bool) {
		if d := decls[origin(obj)]; d != nil {
			d.read = true
			d.used = d.used || write
		}
	}
	// A map's key equality reads every field of a struct key.
	seen := map[types.Type]bool{}
	var readAll func(t types.Type)
	readAll = func(t types.Type) {
		if st, ok := t.Underlying().(*types.Struct); ok && !seen[t] {
			seen[t] = true
			for i := 0; i < st.NumFields(); i++ {
				read(st.Field(i), false)
				readAll(st.Field(i).Type())
			}
		}
	}
	for _, tv := range info.Types {
		if mt, ok := tv.Type.Underlying().(*types.Map); ok {
			readAll(mt.Key())
		}
	}

	for _, f := range p.files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if fl, ok := n.(*ast.FieldList); ok && len(stack) > 0 {
				if fd, ok := stack[len(stack)-1].(*ast.FuncDecl); ok && fd.Recv == fl {
					return false // a receiver is not a user of its type
				}
			}
			useNode(n, stack, info, decls, ifaceCalls, read)
			stack = append(stack, n)
			return true
		})
	}
}

// useNode judges one node given its ancestors.
func useNode(n ast.Node, stack []ast.Node, info *types.Info, decls map[types.Object]*decl,
	ifaceCalls map[types.Object]bool, read func(types.Object, bool)) {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		// Reaching a promoted field or method reads the embedded fields on
		// the way. Writing the field writes them all; a pointer-receiver
		// method takes the address of the embedded values that hold it.
		sel := info.Selections[n]
		if sel == nil || len(sel.Index()) < 2 {
			break
		}
		write, _, _ := access(n, stack, len(stack)-1, info)
		path := make([]*types.Var, 0, len(sel.Index())-1)
		t := sel.Recv()
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			if pt, ok := t.Underlying().(*types.Pointer); ok {
				t = pt.Elem()
			}
			f := t.Underlying().(*types.Struct).Field(i)
			path = append(path, f)
			t = f.Type()
		}
		addressed := sel.Kind() == types.MethodVal && pointerRecv(sel.Obj())
		for i := len(path) - 1; i >= 0; i-- {
			_, ptr := path[i].Type().Underlying().(*types.Pointer)
			addressed = addressed && !ptr
			read(path[i], write || addressed)
		}
	case *ast.CompositeLit:
		// An unkeyed struct literal writes every field.
		if st, ok := info.Types[n].Type.Underlying().(*types.Struct); ok && len(n.Elts) > 0 {
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
				for i := 0; i < st.NumFields(); i++ {
					if d := decls[origin(st.Field(i))]; d != nil {
						d.used = true
					}
				}
			}
		}
	case *ast.Ident:
		obj := info.Uses[n]
		if obj == nil {
			return
		}
		obj = origin(obj)
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceCalls[obj] = true
			}
		}
		d := decls[obj]
		if d == nil || d.pos <= n.Pos() && n.Pos() < d.end {
			return
		}
		if !d.field {
			if c, ok := obj.(*types.Const); !ok || c.Parent() != c.Pkg().Scope() || !matched(n, stack) {
				d.used = true
			}
			return
		}
		write, reads := fieldAccess(n, obj, stack, info)
		d.used = d.used || write
		d.read = d.read || reads
	}
}

// matched says whether id, possibly package-qualified, is a case label or an
// operand of == or !=: a value compared against, not produced.
func matched(id *ast.Ident, stack []ast.Node) bool {
	var x ast.Expr = id
	i := len(stack) - 1
	if sel, ok := stack[i].(*ast.SelectorExpr); ok && sel.Sel == id {
		x, i = sel, i-1
	}
	for ; i >= 0; i-- {
		p, ok := stack[i].(*ast.ParenExpr)
		if !ok {
			break
		}
		x = p
	}
	switch a := stack[i].(type) {
	case *ast.CaseClause:
		return slices.Contains(a.List, x)
	case *ast.BinaryExpr:
		return a.Op == token.EQL || a.Op == token.NEQ
	}
	return false
}

// fieldAccess says whether the field reference id writes the field and
// whether it reads it. A read on the right-hand side of an assignment to the
// same field is not one.
func fieldAccess(id *ast.Ident, obj types.Object, stack []ast.Node, info *types.Info) (write, read bool) {
	parent := stack[len(stack)-1]
	if kv, ok := parent.(*ast.KeyValueExpr); ok && kv.Key == id {
		return true, false
	}
	sel, ok := parent.(*ast.SelectorExpr)
	if !ok || sel.Sel != id {
		return false, true
	}
	write, read, i := access(sel, stack, len(stack)-2, info)
	if write {
		return write, read
	}
	for ; i >= 0; i-- {
		as, ok := stack[i].(*ast.AssignStmt)
		if !ok {
			continue
		}
		for _, l := range as.Lhs {
			if lid := assignedField(l); lid != nil && origin(info.Uses[lid]) == obj {
				return false, false
			}
		}
		break
	}
	return false, true
}

// access judges the field selection x, whose parent is stack[i]: it is written
// by an assignment, increment or delete to or through it (through an index,
// parentheses, a dereference or a field selection), and written and read when
// its address is taken, by & or by a pointer-receiver method called on a value
// it holds. It also returns the index of the node that judged it.
func access(x ast.Expr, stack []ast.Node, i int, info *types.Info) (write, read bool, at int) {
	for ; i >= 0; i-- {
		switch a := stack[i].(type) {
		case *ast.IndexExpr:
			if a.X == x {
				x = a
				continue
			}
		case *ast.ParenExpr:
			x = a
			continue
		case *ast.StarExpr:
			x = a
			continue
		case *ast.SelectorExpr:
			if sel := info.Selections[a]; a.X == x && sel != nil && sel.Kind() == types.FieldVal {
				x = a
				continue
			}
		}
		break
	}
	if i < 0 {
		return false, false, i
	}
	switch a := stack[i].(type) {
	case *ast.AssignStmt:
		if slices.Contains(a.Lhs, x) {
			return true, false, i
		}
	case *ast.IncDecStmt:
		return true, false, i
	case *ast.CallExpr:
		if fn, ok := a.Fun.(*ast.Ident); ok && fn.Name == "delete" && a.Args[0] == x {
			if _, builtin := info.Uses[fn].(*types.Builtin); builtin {
				return true, false, i
			}
		}
	case *ast.UnaryExpr:
		if a.Op == token.AND {
			return true, true, i
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[a]; sel != nil && sel.Kind() == types.MethodVal && pointerRecv(sel.Obj()) {
			if _, ptr := info.Types[x].Type.Underlying().(*types.Pointer); !ptr {
				return true, true, i
			}
		}
	}
	return false, false, i
}

// pointerRecv says whether method fn has a pointer receiver.
func pointerRecv(fn types.Object) bool {
	_, ptr := fn.Type().(*types.Signature).Recv().Type().(*types.Pointer)
	return ptr
}

// assignedField is the field selector an assignment's left-hand side writes.
func assignedField(l ast.Expr) *ast.Ident {
	for {
		switch x := l.(type) {
		case *ast.IndexExpr:
			l = x.X
		case *ast.ParenExpr:
			l = x.X
		case *ast.StarExpr:
			l = x.X
		case *ast.SelectorExpr:
			return x.Sel
		default:
			return nil
		}
	}
}

// implemented marks a method used when it implements an interface method that
// non-test code calls, or a method of an interface the standard library
// declares (its callers are there).
func (m *module) implemented(decls map[types.Object]*decl, ifaceCalls map[types.Object]bool) {
	byName := map[string][]*types.Interface{}
	addIface := func(name string, it *types.Interface) {
		byName[name] = append(byName[name], it)
	}
	for obj := range ifaceCalls {
		recv := obj.Type().(*types.Signature).Recv().Type()
		addIface(obj.Name(), recv.Underlying().(*types.Interface))
	}
	seen := map[*types.Package]bool{}
	var std func(p *types.Package)
	std = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if !strings.HasPrefix(p.Path(), modulePath+"/") {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						for i := 0; i < it.NumMethods(); i++ {
							addIface(it.Method(i).Name(), it)
						}
					}
				}
			}
		}
		for _, q := range p.Imports() {
			std(q)
		}
	}
	for _, p := range m.pkgs {
		std(p.types)
	}
	addIface("Error", types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	for obj, d := range decls {
		fn, ok := obj.(*types.Func)
		if !ok || d.used {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil || types.IsInterface(recv.Type()) {
			continue
		}
		t := recv.Type()
		if pt, ok := t.(*types.Pointer); ok {
			t = pt.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		for _, it := range byName[fn.Name()] {
			if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				d.used = true
				break
			}
		}
	}
}
