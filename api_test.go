package trimcaching

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

// testOnlyAPI lists the exported functions and methods under internal/ that
// no production file references, keyed "pkg.Func" or "pkg.Type.Method". Each
// reason is one line: the pin a cross-package oracle serves, the interface
// the standard library calls, or the item that removes the entry.
var testOnlyAPI = map[string]string{
	"scenario.Instance.FadedHitMass": "per-realization reference with an explicit gain matrix for placement's fusedVsUnfused (FuzzFadedHitRatios, TestFusedMatchesUnfusedProperty)",
	"scenario.SampleGains":           "allocating gain draw for the dense references: root TestBitsetMatchesDenseReference, sim TestEvaluateUnderFadingDeterministic, placement fusedVsUnfused",
	"scenario.Instance.Reachable":    "reach oracle for root TestBitsetMatchesDenseReference, placement TestGenNeverPlacesUselessModels and shard TestHandoffRowsMatchGlobal",
	"scenario.Instance.AvgRateBps":   "average-rate oracle for shard TestHandoffRowsMatchGlobal",
	"modellib.Library.MarshalJSON":   "encoding/json calls it when a Library is encoded",
	"modellib.Library.UnmarshalJSON": "encoding/json calls it when a Library is decoded",
	"faults.RunSoak":                 "chaos soak that only tests run, until checkedTarget becomes a production wrapper (ROADMAP soak item)",
}

// TestProductionAPIIsCalled fails when an exported function or method
// declared under internal/ is referenced only by _test.go files and has no
// entry in testOnlyAPI, and when an entry is stale: its function is gone, it
// now has a production reference, or it gives no one-line reason.
//
// The rule is by name, not by type: any identifier in a non-test file with
// the function's name counts as a reference, whatever it resolves to, except
// the declaration's own name. So a method whose name is used elsewhere, such
// as Step or Mean, gets past it, and a method that satisfies an interface in
// the module passes through the interface's method name.
func TestProductionAPIIsCalled(t *testing.T) {
	type decl struct {
		key, name, pos string
	}
	var decls []decl
	refs := make(map[string]bool)
	fset := token.NewFileSet()
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
		own := make(map[*ast.Ident]bool)
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				key = f.Name.Name + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Name.Name, fset.Position(fd.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				refs[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found under internal/")
	}

	declared := make(map[string]bool)
	var unused []string
	for _, d := range decls {
		declared[d.key] = true
		reason, listed := testOnlyAPI[d.key]
		switch {
		case refs[d.name] && listed:
			t.Errorf("%s: %s is on the allowlist but production now references %s; remove its entry", d.pos, d.key, d.name)
		case !refs[d.name] && !listed:
			unused = append(unused, d.pos+": "+d.key)
		case listed && (strings.TrimSpace(reason) == "" || strings.Contains(reason, "\n")):
			t.Errorf("%s: allowlist entry %s needs a one-line reason", d.pos, d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is referenced only by tests: delete it, move it into a _test.go file, or allowlist it with the pin it serves", u)
	}
	for key := range testOnlyAPI {
		if !declared[key] {
			t.Errorf("allowlist entry %s names no exported function under internal/; remove it", key)
		}
	}
}

// recvTypeName returns the type name of a method receiver: T for T, *T, T[K]
// and *T[K].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
