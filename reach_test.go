//go:build reach

package hierclust

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the declarations in internal/ and pkg/ that nothing a
// user runs reaches and that stay anyway, because a test of reachable code
// uses them to build an input or read a result. Each entry names that
// test. An entry that becomes reachable, whose declaration is gone, or
// whose reason names a Test… or Fuzz… function that no _test.go file
// declares (a trailing * names a prefix), fails the check, so the list
// cannot outlive its use.
var reachAllow = map[string]string{
	"faultinject.Seed":                  "pkg/hierclust TestRunSweepChaosFaultResume: a repeatable fault schedule",
	"faultinject.Disarm":                "internal/faultinject TestConcurrentArmAndHit: disarms under a live Hit",
	"faultinject.DisarmAll":             "internal/diskstore TestStoreReadFaultKeepsIndex and every chaos suite: cleanup between drills",
	"faultinject.Triggered":             "internal/faultinject TestProbability and internal/harness TestTracedRigJoinsPipelineBuild: how often the live Hit fired",
	"leakcheck.Main":                    "TestMain of pkg/hierclust and pkg/hierclust/serve: no goroutine outlives the suite",
	"racedetect.Enabled":                "internal/reliability TestCatastropheProbCtxCancelMidMonteCarlo: widens its latency bound under -race",
	"erasure.gfDiv":                     "internal/erasure TestGFDivMulRoundTrip: division inverts the live gfMul",
	"erasure.RS.Verify":                 "internal/erasure TestRSEncodeDecodeAllErasurePatterns: re-checks the parity the live encoder wrote",
	"storage.LocalStore.Keys":           "internal/checkpoint TestGC and TestCheckpointValidation: what GC left, and that a refused checkpoint wrote nothing, on the node stores",
	"core.RecoveryFractionPair":         "internal/core TestRecoveryFractionPairAlignment: observes AlignPowerPairs",
	"core.SizeGuided":                   "pkg/hierclust TestPipelineMatchesCore: the clustering the size-guided strategy must build",
	"core.Distributed":                  "pkg/hierclust TestPipelineMatchesCore and internal/harness TestFigs34MatchReference: the striped clustering the distributed strategy must build",
	"reliability.Model.CatastropheProb": "internal/reliability TestFlattenMatchesReferenceRandom/TestFlattenMatchesReferencePlacements (checkAgainstReference) and internal/harness TestFigs34MatchReference: the model weighed on caller-built groups",
	"trace.Stencil.NNZ":                 "internal/trace TestStencilMatchesSynthetic: the closed form against the built CSR",
	"checkpoint.Manager.Groups":         "internal/checkpoint TestL3CycleAllocationBound: a fresh manager per cycle over the first one's groups",
	"checkpoint.Manager.Versions":       "internal/checkpoint TestGC: which versions GC kept",
	"graph.Graph.Weight":                "internal/trace TestToGraphSymmetric and the fold references (foldsAlike): a built graph's edge weights",
	"graph.Graph.Neighbors":             "internal/trace foldsAlike and internal/core TestCallerOwnedGraphAndPartition: a built graph's adjacency",
	"graph.Graph.Strength":              "internal/core TestCallerOwnedGraphAndPartition: a built graph's vertex strengths",
	"graph.Graph.TotalWeight":           "internal/graph TestDegreeStrengthTotals and TestQuotientWeightProperty: the total a built graph and its quotient keep",
	"graph.Graph.EdgeCount":             "internal/trace TestZeroByteMessageEquivalence: zero-byte cells add no edge",
	"topology.NewPlacement":             "internal/trace TestNodeFoldMatchesReference and internal/reliability TestFlattenMatchesReferencePlacements: irregular placements",
	"simmpi.Comm.Send":                  "internal/tsunami TestScheduleMatchesTracedRun and the TestRunTraced* tests: the oracle RunTraced's ghost rows, checkpoints and parity",
	"simmpi.Comm.Recv":                  "internal/tsunami TestScheduleMatchesTracedRun and the TestRunTraced* tests: the oracle RunTraced's checkpoint, parity and ack receives",
	"simmpi.Comm.userTag":               "internal/tsunami TestScheduleMatchesTracedRun: checks the oracle RunTraced's tags (through Send and Recv)",
	"simmpi.Comm.Irecv":                 "internal/tsunami TestScheduleMatchesTracedRun and the TestRunTraced* tests: the oracle RunTraced's ghost-row receives",
	"simmpi.Request":                    "internal/tsunami TestScheduleMatchesTracedRun and the TestRunTraced* tests: the oracle RunTraced's pending ghost-row receives",
	"simmpi.Request.Wait":               "internal/tsunami TestScheduleMatchesTracedRun and the TestRunTraced* tests: the oracle RunTraced's ghost-row receives",
	"simmpi.Proc.Rank":                  "internal/tsunami TestScheduleMatchesTracedRun and the TestRunTraced* tests: the oracle RunTraced's role of each world rank",
	"hierclust.EncodeSweep":             "pkg/hierclust FuzzDecodeSweep and TestSweepEncodeDecodeRoundTrip: the decode→encode round trip",
}

// reachIfaceNames are the method names through which the standard library
// calls a value it is handed (fmt, errors, sort, io, net/http,
// encoding/json): a method of a reached type with one of these names, or
// with the name of any method of an interface declared in this repository,
// counts as reached.
var reachIfaceNames = strings.Fields("String Error Unwrap Len Less Swap Read Write Close WriteTo ServeHTTP Flush WriteHeader MarshalJSON UnmarshalJSON")

// reachLoader type-checks the repository's packages from source, one
// *types.Package per import path, with every package's uses and
// definitions in one types.Info; anything outside the module goes to the
// standard library's source importer.
type reachLoader struct {
	root  string
	fset  *token.FileSet
	std   types.ImporterFrom
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *reachLoader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	if path == "hierclust" || strings.HasPrefix(path, "hierclust/") {
		return l.load(path, false)
	}
	return l.std.ImportFrom(path, l.root, 0)
}

// load type-checks the package at an import path of this module (the
// nested benchmarks module maps onto its directory the same way), with its
// in-package test files when tests is set or when one of them declares an
// Example function — one copy, which importers see too (an in-package test
// cannot import an importer of its package). A path ending in "_test" is the
// directory's external test package.
func (l *reachLoader) load(path string, tests bool) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dirPath, xtest := strings.CutSuffix(path, "_test")
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(dirPath, "hierclust"), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	parse := func(names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}
	names := bp.GoFiles
	if xtest {
		names = bp.XTestGoFiles
	}
	files, err := parse(names)
	if err != nil {
		return nil, err
	}
	if !xtest {
		tfiles, err := parse(bp.TestGoFiles)
		if err != nil {
			return nil, err
		}
		if tests || len(reachExamples(tfiles)) > 0 {
			files = append(files, tfiles...)
		}
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = p, files
	return p, nil
}

// reachExamples returns the Example functions the files declare.
func reachExamples(files []*ast.File) []*ast.Ident {
	var names []*ast.Ident
	for _, f := range files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example") {
				names = append(names, fn.Name)
			}
		}
	}
	return names
}

// reachDecl is one package-level declaration or method: where it is
// (file relative to the repository root), how many lines it spans with its
// doc comment, and the objects its text uses.
type reachDecl struct {
	file  string
	line  int
	lines int
	uses  []types.Object
}

// TestInternalReachable fails for every declaration under internal/ and
// pkg/ that nothing a user can run reaches. Roots are what users run: the
// main packages under cmd/ and examples/, the benchmarks module with its
// tests, the exported names of pkg/hierclust/serve (with the exported
// methods of the types it exports or aliases), the Example functions (their
// test files are loaded with their packages), and every init outside a
// test file. An export of pkg/hierclust is not a root: it is reported when
// none of these uses it. A declaration is reached when a reached
// declaration's text uses it; a method is also reached when its receiver
// type is and its name is in reachIfaceNames or in an interface the
// repository declares. What only a package's own tests (or nothing) reach
// is deleted or, for a test instrument, named in reachAllow.
func TestInternalReachable(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	l := &reachLoader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}

	// Load every package directory of the repository; roots with tests are
	// loaded with them. Every test file's function names are kept for the
	// reasons' test names.
	var mains, public []string
	testFuncs := map[string]bool{}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			if strings.HasSuffix(dir, "_test.go") {
				return reachTestFuncs(dir, testFuncs)
			}
			return nil
		}
		if name := d.Name(); dir != root && (name[0] == '.' || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		rel = filepath.ToSlash(rel)
		path := "hierclust"
		if rel != "." {
			path += "/" + rel
		}
		switch {
		case strings.HasPrefix(rel, "benchmarks/"):
			mains = append(mains, path)
			_, err = l.load(path, true)
			return err
		case bp.Name == "main":
			mains = append(mains, path)
		case rel == "pkg/hierclust/serve":
			public = append(public, path)
		}
		if len(bp.XTestGoFiles) > 0 {
			if _, err := l.load(path+"_test", false); err != nil {
				return err
			}
		}
		_, err = l.load(path, false)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// One node per package-level object and method.
	decls := map[types.Object]*reachDecl{}
	ifaceNames := map[string]bool{}
	for _, name := range reachIfaceNames {
		ifaceNames[name] = true
	}
	methods := map[*types.TypeName][]*types.Func{}
	var roots []types.Object
	add := func(id *ast.Ident, node ast.Node, doc *ast.CommentGroup, text ast.Node) {
		obj := l.info.Defs[id]
		if obj == nil {
			return
		}
		start := node.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		pos := fset.Position(id.Pos())
		rel, _ := filepath.Rel(root, pos.Filename)
		d := &reachDecl{file: filepath.ToSlash(rel), line: pos.Line, lines: fset.Position(node.End()).Line - fset.Position(start).Line + 1}
		ast.Inspect(text, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if o := l.info.Uses[n]; o != nil {
					d.uses = append(d.uses, o)
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceNames[name.Name] = true
					}
				}
			}
			return true
		})
		decls[obj] = d
		if (id.Name == "_" || id.Name == "init") && !strings.HasSuffix(d.file, "_test.go") {
			roots = append(roots, obj)
		}
	}
	for _, files := range l.files {
		for _, id := range reachExamples(files) {
			roots = append(roots, l.info.Defs[id])
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					add(decl.Name, decl, decl.Doc, decl)
					if fn, ok := l.info.Defs[decl.Name].(*types.Func); ok && decl.Recv != nil {
						if named := reachNamed(fn.Type().(*types.Signature).Recv().Type()); named != nil {
							methods[named.Obj()] = append(methods[named.Obj()], fn)
						}
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						node, doc := ast.Node(spec), decl.Doc
						if len(decl.Specs) == 1 && !decl.Lparen.IsValid() {
							node = decl
						}
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if spec.Doc != nil {
								doc = spec.Doc
							}
							add(spec.Name, node, doc, spec)
						case *ast.ValueSpec:
							if spec.Doc != nil || decl.Lparen.IsValid() {
								doc = spec.Doc
							}
							for _, name := range spec.Names {
								add(name, node, doc, spec)
							}
						}
					}
				}
			}
		}
	}

	// Roots.
	for _, path := range mains {
		scope := l.pkgs[path].Scope()
		for _, name := range scope.Names() {
			roots = append(roots, scope.Lookup(name))
		}
	}
	for _, path := range public {
		scope := l.pkgs[path].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			roots = append(roots, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					roots = append(roots, m)
				}
			}
		}
	}

	// Mark.
	reached := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if decls[obj] != nil && !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	drain := func() {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			for _, u := range decls[obj].uses {
				mark(u)
			}
			if tn, ok := obj.(*types.TypeName); ok {
				for _, m := range methods[tn] {
					if ifaceNames[m.Name()] {
						mark(m)
					}
				}
			}
		}
	}
	for _, obj := range roots {
		mark(obj)
	}
	drain()

	// An allowed instrument must be unreached by the roots alone (checked
	// for every entry before any is marked, since one may use another);
	// what it uses is then kept with it.
	byName := map[string]types.Object{}
	for obj, d := range decls {
		if (strings.HasPrefix(d.file, "internal/") || strings.HasPrefix(d.file, "pkg/")) && !strings.HasSuffix(d.file, "_test.go") && obj.Name() != "_" {
			byName[reachName(obj)] = obj
		}
	}
	for name, reason := range reachAllow {
		switch obj := byName[name]; {
		case obj == nil:
			t.Errorf("reachAllow[%q]: no such declaration; drop the entry", name)
		case reached[obj]:
			t.Errorf("reachAllow[%q]: the declaration is reachable; drop the entry", name)
		}
		for _, test := range reachTestName.FindAllString(reason, -1) {
			declared := testFuncs[test]
			if prefix, ok := strings.CutSuffix(test, "*"); ok {
				for fn := range testFuncs {
					declared = declared || strings.HasPrefix(fn, prefix)
				}
			}
			if !declared {
				t.Errorf("reachAllow[%q]: the reason names %s, which no _test.go file declares", name, test)
			}
		}
	}
	for name := range reachAllow {
		if obj := byName[name]; obj != nil {
			mark(obj)
		}
	}
	drain()

	// Report what internal/ and pkg/ hold unreached.
	var dead []string
	total := 0
	for name, obj := range byName {
		if !reached[obj] {
			d := decls[obj]
			dead = append(dead, fmt.Sprintf("%s:%d %s (%d)", d.file, d.line, name, d.lines))
			total += d.lines
		}
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Errorf("%d declarations (%d lines) that nothing a user runs reaches — delete each, or name the test that needs it in reachAllow:\n%s",
			len(dead), total, strings.Join(dead, "\n"))
	}
}

// reachTestName matches a Test… or Fuzz… function name in a reachAllow
// reason, with the trailing * of a prefix.
var reachTestName = regexp.MustCompile(`\b(Test|Fuzz)[A-Z]\w*\*?`)

// reachTestFuncs adds the functions a test file declares to names.
func reachTestFuncs(path string, names map[string]bool) error {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
			names[fn.Name.Name] = true
		}
	}
	return nil
}

// reachNamed is the named type behind a receiver type.
func reachNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// reachName is "pkg.Name" or "pkg.Type.Method".
func reachName(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if named := reachNamed(recv.Type()); named != nil {
				name = named.Obj().Name() + "." + name
			}
		}
	}
	return obj.Pkg().Name() + "." + name
}
