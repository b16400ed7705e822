package reis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stdlibMethods are method names a type declares to satisfy a standard
// library interface (fmt.Stringer, error, http.ResponseWriter,
// http.Flusher, context.Context); the caller is the library, not this
// module.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Write": true, "WriteHeader": true,
	"Flush": true, "Deadline": true, "Done": true, "Err": true, "Value": true,
}

// exportAllowlist names exported declarations under internal/ that no
// program names but that stay, each with its reason. Keys are
// "pkg.Name", "pkg.Recv.Name" or, for a struct field, "pkg.Type.Field".
var exportAllowlist = map[string]string{
	"ann.NewBinaryFlat":            "reference implementation: internal/reis's cross-validation test checks the engine against it",
	"ssd.Region.PlaneViews":        "reference: the allocation-free AppendPlaneSpans is checked against it",
	"flash.Address.LinearIndex":    "reference: AddressFromLinear is checked as its inverse",
	"vecmath.UnpackBinaryBytes":    "reference: the round-trip check of PackBinaryBytes",
	"flash.Params.ProgramLatency":  "ROADMAP item 11 prices writes with the program-time model",
	"reis.LatencySketch.Merge":     "ROADMAP items 4 and 9 merge per-route and per-replica sketches",
	"rivals.ICEConfig.Energy":      "ICE's energy model, kept beside its latency model for the rival comparisons",
	"rivals.NDSearchConfig.Energy": "NDSearch's energy model, kept beside its latency model for the rival comparisons",
	"flash.Device.Plane":           "test accessor: internal/reis and internal/experiments tests read per-plane sense and wave counters",
	"flash.Device.ResetStats":      "test accessor: internal/reis tests zero device counters between phases",
	"flash.Plane.Senses":           "test accessor: TestPlaneReconciliation reads per-plane sense counts",
	"flash.Plane.DistWaves":        "test accessor: TestPlaneReconciliation reads per-plane distance waves",
	"serve.Group.Host":             "test accessor: internal/serve tests reach a replica's host",
	"xrand.RNG.Float32":            "test accessor: internal/ann's top-k tests draw float32 distances with it",
}

// TestInternalExportsHaveCallers fails when an exported function,
// method, package-level type, var or const, or exported field of an
// exported struct type, declared under internal/ is named nowhere
// outside its own declaration in a non-test file of this module or of
// benchmark/. Only those two can import internal/, so such
// a name has no caller and is dead surface. It also fails when an
// exported var or const other than a sentinel error (Err...) is named
// only inside its own package: nothing else reads it, so it needs no
// export. Matching is by identifier name with no type checking, so it
// is a floor: a dead method that shares its name with a live one (a
// second Search, say) passes.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	// usedIn[name] holds the directories — packages — whose non-test
	// files name it outside its declaration.
	usedIn := map[string]map[string]bool{}
	type decl struct {
		key, name, dir string
		ownPkgOnly     bool // an exported var or const: must be named outside its package
	}
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		own := map[*ast.Ident]bool{}
		declare := func(id *ast.Ident, key string, ownPkgOnly bool) {
			own[id] = true
			if internal && id.IsExported() {
				decls = append(decls, decl{key, id.Name, dir, ownPkgOnly})
			}
		}
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				key := f.Name.Name + "."
				if dd.Recv != nil {
					if stdlibMethods[dd.Name.Name] {
						own[dd.Name] = true
						continue
					}
					recv := dd.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						key += id.Name + "."
					}
				}
				declare(dd.Name, key+dd.Name.Name, false)
			case *ast.GenDecl:
				for _, sp := range dd.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						key := f.Name.Name + "." + sp.Name.Name
						declare(sp.Name, key, false)
						if st, ok := sp.Type.(*ast.StructType); ok && sp.Name.IsExported() {
							for _, fld := range st.Fields.List {
								for _, id := range fld.Names {
									declare(id, key+"."+id.Name, false)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							declare(id, f.Name.Name+"."+id.Name, !strings.HasPrefix(id.Name, "Err"))
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				if usedIn[id.Name] == nil {
					usedIn[id.Name] = map[string]bool{}
				}
				usedIn[id.Name][dir] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if _, ok := exportAllowlist[d.key]; ok {
			continue
		}
		users := usedIn[d.name]
		switch {
		case len(users) == 0:
			dead = append(dead, d.key+": exported under internal/ but no program names it; delete it or add it to exportAllowlist with a reason")
		case d.ownPkgOnly && len(users) == 1 && users[d.dir]:
			dead = append(dead, d.key+": exported var or const that only its own package reads; unexport it")
		}
	}
	sort.Strings(dead)
	for _, msg := range dead {
		t.Error(msg)
	}
	for k := range exportAllowlist {
		if !declared[k] {
			t.Errorf("exportAllowlist entry %s names no exported declaration under internal/", k)
		}
	}
}
