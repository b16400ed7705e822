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
// other package's program names but that stay, each with its reason.
// Keys are "pkg.Name", "pkg.Recv.Name" or, for a struct field,
// "pkg.Type.Field"; "pkg.Type.*" keeps every field and method of Type.
var exportAllowlist = map[string]string{
	"ann.NewBinaryFlat":            "reference implementation: internal/reis's cross-validation test checks the engine against it",
	"flash.Address.LinearIndex":    "reference: AddressFromLinear is checked as its inverse",
	"vecmath.UnpackBinaryBytes":    "reference: the round-trip check of PackBinaryBytes",
	"dataset.ExactTopK":            "reference: internal/reis's lattice test computes the exact neighbours of mutated databases with it",
	"flash.Params.ProgramLatency":  "the program-time model, kept for pricing appends and GC copy-forward on the model clock",
	"reis.LatencySketch.Merge":     "kept for folding per-route, per-tenant and per-replica latency sketches into one distribution",
	"rivals.ICEConfig.Energy":      "ICE's energy model, kept beside its latency model for the rival comparisons",
	"rivals.NDSearchConfig.Energy": "NDSearch's energy model, kept beside its latency model for the rival comparisons",
	"reis.Options.MPIBC":           "callers rely on its zero value: Fig 9's +PL column builds Options{DistanceFilter: true, Pipelining: true} without it",
	"flash.Address.Page":           "the page coordinate of Address, whose other four coordinates other packages read; an address without its page names no page",
	"flash.Device.Plane":           "test accessor: internal/reis and internal/experiments tests read per-plane sense and wave counters",
	"flash.Device.ResetStats":      "test accessor: internal/reis tests zero device counters between phases",
	"flash.Device.BlockMode":       "test accessor: internal/ssd and internal/reis tests check the cell mode a deployed region's blocks got",
	"flash.Address.Valid":          "test accessor: internal/ssd's plane-order test checks that every AddressFromLinear result lies inside the geometry",
	"flash.Plane.Senses":           "test accessor: TestPlaneReconciliation reads per-plane sense counts",
	"flash.Plane.DistWaves":        "test accessor: TestPlaneReconciliation reads per-plane distance waves",
	"flash.Stats.*":                "the device counters: internal/reis and internal/experiments tests read them by name (internal/reis's TestScanCounterDigest hashes every one's value, in declaration order)",
	"dataset.Dataset.ClusterOf":    "test accessor: internal/reis's filtered-search and cache tests tag entries with their generator topic",
	"ssd.Region.PageCount":         "test accessor: internal/reis tests walk a deployed region's pages",
	"xrand.RNG.Float32":            "test accessor: internal/ann's top-k tests draw float32 distances with it",
}

// TestInternalExportsHaveCallers fails when an exported declaration
// under internal/ — a function, method, package-level type, var or
// const, or an exported field of an exported struct type — is named by
// no non-test file outside its own package. Callers are the non-test
// files of this module and of benchmark/, the only two that can import
// internal/; a name that only its own package names needs no export.
// Exempt are:
//   - struct fields with a tag: encoding/json writes them (reisbench's
//     experiment rows, the gateway's /stats);
//   - types another package gets values of without naming them: an
//     exported function or method of their package returns them, or an
//     exported field (named or embedded) of an exported struct type
//     holds them;
//   - Err... sentinels that another package's tests match;
//   - methods that satisfy a standard library interface (stdlibMethods);
//   - exportAllowlist's names, each with its reason.
//
// It also fails on an allowlist entry that names no declaration.
// Matching is by identifier name with no type checking, so it is a
// floor: a dead method that shares its name with a live one (a second
// Search, say) passes. It logs the count of exported declarations.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	// usedIn[name] holds the directories — packages — whose non-test
	// files name it outside its declaration; testedIn, those whose test
	// files do.
	usedIn := map[string]map[string]bool{}
	testedIn := map[string]map[string]bool{}
	type decl struct {
		key, name, dir string
		tagged         bool // a struct field with a tag
	}
	var decls []decl
	// reached["dir.Type"] marks a type that another package gets values
	// of without naming it: an exported function or method of dir
	// returns it, or an exported struct type of dir has a field (named
	// or embedded) of it.
	reached := map[string]bool{}
	reach := func(dir string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				reached[dir+"."+id.Name] = true
			}
			return true
		})
	}
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		isTest := strings.HasSuffix(path, "_test.go")
		uses := usedIn
		if isTest {
			uses = testedIn
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/") && !isTest
		own := map[*ast.Ident]bool{}
		declare := func(id *ast.Ident, key string, tagged bool) {
			own[id] = true
			if internal && id.IsExported() {
				decls = append(decls, decl{key, id.Name, dir, tagged})
			}
		}
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				if !internal {
					continue
				}
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
				if dd.Name.IsExported() && dd.Type.Results != nil {
					reach(dir, dd.Type.Results)
				}
			case *ast.GenDecl:
				if !internal {
					continue
				}
				for _, sp := range dd.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						key := f.Name.Name + "." + sp.Name.Name
						declare(sp.Name, key, false)
						if st, ok := sp.Type.(*ast.StructType); ok && sp.Name.IsExported() {
							for _, fld := range st.Fields.List {
								for _, id := range fld.Names {
									declare(id, key+"."+id.Name, fld.Tag != nil)
								}
								if len(fld.Names) == 0 || fld.Names[0].IsExported() {
									reach(dir, fld.Type)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							declare(id, f.Name.Name+"."+id.Name, false)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				if uses[id.Name] == nil {
					uses[id.Name] = map[string]bool{}
				}
				uses[id.Name][dir] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	outside := func(users map[string]bool, dir string) bool {
		for u := range users {
			if u != dir {
				return true
			}
		}
		return false
	}
	var dead []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		_, allowed := exportAllowlist[d.key]
		allowed = allowed || exportAllowlist[strings.TrimSuffix(d.key, d.name)+"*"] != ""
		sentinel := strings.HasPrefix(d.name, "Err") && outside(testedIn[d.name], d.dir)
		if allowed || d.tagged || reached[d.dir+"."+d.name] || sentinel || outside(usedIn[d.name], d.dir) {
			continue
		}
		dead = append(dead, d.key+": exported under internal/ but named by no other package; unexport or delete it, or add it to exportAllowlist with a reason")
	}
	sort.Strings(dead)
	for _, msg := range dead {
		t.Error(msg)
	}
	t.Logf("%d exported declarations under internal/", len(decls))
	for k := range exportAllowlist {
		if !declared[strings.TrimSuffix(k, ".*")] {
			t.Errorf("exportAllowlist entry %s names no exported declaration under internal/", k)
		}
	}
}
