package reis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNothingWritesIntoDocuments: a search result's document
// (reis.DocResult.Doc) is a read-only view of the flash page it was read
// from, shared with the result cache, with every response that served it
// and, for a page's fill, with every other page of the device. So no
// non-test file of this module or of benchmark/ writes through a .Doc
// selector: no assignment to or increment of an element, no copy or
// clear into it, and no append to a reslice of it, which would write in
// place. Matching is syntactic, so it is a floor: a write through a
// variable the document was first assigned to passes.
func TestNothingWritesIntoDocuments(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
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
		files++
		for _, n := range docWrites(f) {
			t.Errorf("%s: writes into a document, a read-only view of flash", fset.Position(n.Pos()))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files scanned")
	}
	t.Logf("%d non-test files scanned", files)
}

// TestDocWritesFindsEveryForm holds docWrites to a file that writes into
// documents in each form it must report, beside reads and reassignments
// it must not.
func TestDocWritesFindsEveryForm(t *testing.T) {
	const src = `package p
func f(r DocResult, rs []DocResult, b []byte) {
	r.Doc[0] = 1          // write
	rs[2].Doc[1] ^= 0xff  // write
	r.Doc[3]++            // write
	copy(r.Doc, b)        // write
	copy(r.Doc[4:], b)    // write
	clear((r.Doc))        // write
	_ = append(r.Doc[:0], b...) // write
	r.Doc = b
	b[0] = r.Doc[0]
	copy(b, r.Doc)
	_ = append(r.Doc, b...)
	_ = append(b, r.Doc...)
}`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(docWrites(f)), strings.Count(src, "// write"); got != want {
		t.Fatalf("docWrites found %d writes, the source has %d", got, want)
	}
}

// docWrites returns the statements and calls of f that write through a
// .Doc selector.
func docWrites(f *ast.File) []ast.Node {
	var found []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok && isDoc(ix.X) {
					found = append(found, n)
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := n.X.(*ast.IndexExpr); ok && isDoc(ix.X) {
				found = append(found, n)
			}
		case *ast.CallExpr:
			fn, ok := n.Fun.(*ast.Ident)
			if !ok || len(n.Args) == 0 {
				break
			}
			switch fn.Name {
			case "copy", "clear":
				if isDoc(n.Args[0]) {
					found = append(found, n)
				}
			case "append":
				if sl, ok := ast.Unparen(n.Args[0]).(*ast.SliceExpr); ok && isDoc(sl.X) {
					found = append(found, n)
				}
			}
		}
		return true
	})
	return found
}

// isDoc reports whether e is a .Doc selector, or a reslice of one.
func isDoc(e ast.Expr) bool {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		return isDoc(sl.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Doc"
}
