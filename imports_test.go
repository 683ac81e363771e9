package vessel

import (
	"go/ast"
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

// TestEveryConfigFieldIsSet parses every Go file of the repository, tests
// and the bench module included, and fails when an exported field of a
// config struct is never set. A config struct is a non-test struct type
// named *Config or *Options, one with a withDefaults method, or
// cpu.Hooks. A field is set when a composite literal of its type keys it,
// or when an assignment, an increment or an address-of writes it outside
// the type's default-filling code: a write to a field of a by-value
// parameter or receiver only changes the callee's copy of what a caller
// chose. A field nothing sets is a constant behind an option.
func TestEveryConfigFieldIsSet(t *testing.T) {
	type srcFile struct {
		pkg     string
		imports map[string]string // local name → import path
		f       *ast.File
		test    bool
	}
	type decl struct {
		file *srcFile
		typ  ast.Expr
	}
	var files []*srcFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		sf := &srcFile{pkg: "vessel", imports: map[string]string{}, f: f, test: strings.HasSuffix(path, "_test.go")}
		if dir := filepath.Dir(path); dir != "." {
			sf.pkg += "/" + filepath.ToSlash(dir)
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			name := imp[strings.LastIndex(imp, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			sf.imports[name] = imp
		}
		files = append(files, sf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: struct types, aliases, and function result types, all
	// keyed by package-qualified name ("pkg.Type", "pkg.Func",
	// "pkg.Type.Method").
	structs := map[string]*ast.StructType{}
	structFile := map[string]*srcFile{}
	aliases := map[string]decl{}
	results := map[string]decl{}
	config := map[string]bool{}
	var resolve func(sf *srcFile, e ast.Expr) string
	resolve = func(sf *srcFile, e ast.Expr) string {
		key := ""
		switch e := e.(type) {
		case *ast.StarExpr:
			return resolve(sf, e.X)
		case *ast.ParenExpr:
			return resolve(sf, e.X)
		case *ast.Ident:
			key = sf.pkg + "." + e.Name
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok && sf.imports[x.Name] != "" {
				key = sf.imports[x.Name] + "." + e.Sel.Name
			}
		}
		if a, ok := aliases[key]; ok {
			return resolve(a.file, a.typ)
		}
		return key
	}
	for _, sf := range files {
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					key := sf.pkg + "." + ts.Name.Name
					if ts.Assign.IsValid() {
						aliases[key] = decl{sf, ts.Type}
					} else if st, ok := ts.Type.(*ast.StructType); ok {
						structs[key], structFile[key] = st, sf
						name := ts.Name.Name
						if !sf.test && (strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || key == "vessel/internal/cpu.Hooks") {
							config[key] = true
						}
					}
				}
			case *ast.FuncDecl:
				key := sf.pkg + "." + d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if s, ok := recv.(*ast.StarExpr); ok {
						recv = s.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						key = sf.pkg + "." + id.Name + "." + d.Name.Name
						if d.Name.Name == "withDefaults" && !sf.test {
							config[sf.pkg+"."+id.Name] = true
						}
					}
				}
				if r := d.Type.Results; r != nil && len(r.List) > 0 {
					results[key] = decl{sf, r.List[0].Type}
				}
			}
		}
	}

	// Writes. A function's locals are typed from their declarations: a
	// use sees the name's latest binding before it, block scopes aside. A
	// write whose receiver cannot be typed counts for every config field
	// of that name.
	set := map[string]bool{}
	untyped := map[string]bool{}
	type binding struct {
		at      token.Pos
		typ     string
		byValue bool // a by-value parameter or receiver
	}
	for _, sf := range files {
		elided := map[*ast.CompositeLit]string{}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			typ := elided[lit]
			if lit.Type != nil {
				typ = resolve(sf, lit.Type)
			}
			var elem string
			switch lt := lit.Type.(type) {
			case *ast.ArrayType:
				elem = resolve(sf, lt.Elt)
			case *ast.MapType:
				elem = resolve(sf, lt.Value)
			}
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok && typ != "" {
						set[typ+"."+k.Name] = true
					}
					el = kv.Value
				}
				if u, ok := el.(*ast.UnaryExpr); ok {
					el = u.X
				}
				if inner, ok := el.(*ast.CompositeLit); ok && inner.Type == nil && elem != "" {
					elided[inner] = elem
				}
			}
			return true
		})
		for _, d := range sf.f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			scope := map[string][]binding{}
			bind := func(at token.Pos, name, typ string, byValue bool) {
				scope[name] = append(scope[name], binding{at, typ, byValue})
			}
			lookup := func(id *ast.Ident) binding {
				bs := scope[id.Name]
				for i := len(bs) - 1; i >= 0; i-- {
					if bs[i].at < id.Pos() {
						return bs[i]
					}
				}
				return binding{}
			}
			params := func(fl *ast.FieldList) {
				if fl == nil {
					return
				}
				for _, p := range fl.List {
					_, ptr := p.Type.(*ast.StarExpr)
					for _, n := range p.Names {
						bind(fl.Pos(), n.Name, resolve(sf, p.Type), !ptr)
					}
				}
			}
			var typeOf func(e ast.Expr) string
			typeOf = func(e ast.Expr) string {
				switch e := e.(type) {
				case *ast.Ident:
					return lookup(e).typ
				case *ast.ParenExpr:
					return typeOf(e.X)
				case *ast.StarExpr:
					return typeOf(e.X)
				case *ast.UnaryExpr:
					return typeOf(e.X)
				case *ast.CompositeLit:
					return resolve(sf, e.Type)
				case *ast.CallExpr:
					var r decl
					switch f := e.Fun.(type) {
					case *ast.Ident:
						r = results[sf.pkg+"."+f.Name]
					case *ast.SelectorExpr:
						if x, ok := f.X.(*ast.Ident); ok && sf.imports[x.Name] != "" && lookup(x).typ == "" {
							r = results[sf.imports[x.Name]+"."+f.Sel.Name]
						} else if recv := typeOf(f.X); recv != "" {
							r = results[recv+"."+f.Sel.Name]
						}
					}
					if r.file != nil {
						return resolve(r.file, r.typ)
					}
				case *ast.SelectorExpr:
					st := structs[typeOf(e.X)]
					if st == nil {
						return ""
					}
					for _, f := range st.Fields.List {
						for _, n := range f.Names {
							if n.Name == e.Sel.Name {
								return resolve(structFile[typeOf(e.X)], f.Type)
							}
						}
					}
				}
				return ""
			}
			params(fn.Recv)
			params(fn.Type.Params)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					params(n.Type.Params)
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						return true
					}
					for i, lhs := range n.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok {
							continue
						}
						if len(n.Rhs) == len(n.Lhs) {
							bind(n.End(), id.Name, typeOf(n.Rhs[i]), false)
						} else if i == 0 {
							bind(n.End(), id.Name, typeOf(n.Rhs[0]), false)
						}
					}
				case *ast.ValueSpec:
					for i, id := range n.Names {
						if n.Type != nil {
							bind(n.End(), id.Name, resolve(sf, n.Type), false)
						} else if len(n.Values) == len(n.Names) {
							bind(n.End(), id.Name, typeOf(n.Values[i]), false)
						}
					}
				}
				return true
			})
			write := func(e ast.Expr) {
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					return
				}
				recv := typeOf(sel.X)
				if recv == "" {
					untyped[sel.Sel.Name] = true
					return
				}
				if id, ok := sel.X.(*ast.Ident); ok && lookup(id).byValue {
					return // default-filling: the callee's own copy
				}
				set[recv+"."+sel.Sel.Name] = true
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							write(lhs)
						}
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				}
				return true
			})
		}
	}

	var unset []string
	for key := range config {
		st := structs[key]
		if st == nil {
			continue
		}
		for _, f := range st.Fields.List {
			for _, n := range f.Names {
				if n.IsExported() && !set[key+"."+n.Name] && !untyped[n.Name] {
					unset = append(unset, key+"."+n.Name)
				}
			}
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Fatalf("config fields nothing sets (make each a constant):\n%s", strings.Join(unset, "\n"))
	}
	if !config["vessel/internal/cpu.Hooks"] || !set["vessel/internal/selfheal.Config.Domains"] {
		t.Fatal("the scan missed the config structs")
	}
}

// TestNoExportedPackageVars parses every non-test Go file of the module and
// fails on an exported package-level var other than an Err* sentinel. Such
// a var is state every machine, run and test in the process shares: a
// setting belongs on the value it configures, and a test that flips a
// global cannot run in parallel with one that reads it.
func TestNoExportedPackageVars(t *testing.T) {
	fset := token.NewFileSet()
	var found []string
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
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, n := range spec.(*ast.ValueSpec).Names {
					if n.IsExported() && !strings.HasPrefix(n.Name, "Err") {
						found = append(found, fset.Position(n.Pos()).String()+": "+n.Name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) > 0 {
		t.Fatalf("exported package-level vars (move each onto the value it configures):\n%s", strings.Join(found, "\n"))
	}
}
