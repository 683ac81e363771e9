package vessel

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsReached parses every non-test Go file of the
// module and fails when an internal package cannot be reached, through
// non-test imports, from the library, a command or an example. Such a
// package is a model nothing runs: only its own tests keep it alive.
func TestEveryInternalPackageIsReached(t *testing.T) {
	imports := map[string][]string{} // package import path → non-test imports
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := "vessel"
		if dir := filepath.Dir(path); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		imps := imports[pkg]
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			imps = append(imps, imp)
		}
		imports[pkg] = imps
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	internal := func(pkg string) bool { return strings.Contains(pkg+"/", "/internal/") }
	reached := map[string]bool{}
	var queue []string
	for pkg := range imports {
		if !internal(pkg) {
			reached[pkg] = true
			queue = append(queue, pkg)
		}
	}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		for _, imp := range imports[pkg] {
			if _, ours := imports[imp]; ours && !reached[imp] {
				reached[imp] = true
				queue = append(queue, imp)
			}
		}
	}
	var dead []string
	for pkg := range imports {
		if !reached[pkg] {
			dead = append(dead, pkg)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Fatalf("internal packages reached only by their own tests: %v", dead)
	}
	if !reached["vessel/internal/vessel"] {
		t.Fatal("the scan missed the internal packages")
	}
}
