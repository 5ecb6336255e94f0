package gamestreamsr_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// The reasons a declaration may stay although no binary links it. There
// are four and no others; "a test calls it" is not one (such a test calls
// what the binaries call, or the helper lives in a _test.go file).
const (
	facade    = "(a) the library facade, or reached only from it"
	iface     = "(b) a method an interface requires"
	reference = "(c) a reference implementation a test holds a shipped path to"
	roadmap   = "(d) a use named by an open ROADMAP.md item"
)

// unlinkedAllowed names what may stay unlinked, with its reason: a whole
// file, or one declaration as "file name" with the name as declName prints
// it.
var unlinkedAllowed = map[string]string{
	"gamestreamsr.go":                                facade,
	"internal/games/games.go New":                    facade, // NewWorkload
	"internal/geom/geom.go Triangle.Bounds":          facade, // the Triangle alias
	"internal/geom/geom.go Triangle.Intersect":       facade,
	"internal/sr/fast.go BilinearEngine.Name":        facade, // BilinearSR
	"internal/sr/fast.go BilinearEngine.Upscale":     facade,
	"internal/sr/fast.go BilinearEngine.UpscaleInto": facade,

	"internal/diag/logx/logx.go (*Ring).WithAttrs": iface, // slog.Handler
	"internal/diag/logx/logx.go (*Ring).WithGroup": iface,

	"internal/sr/tensor.go ReLU":  reference, // the fused epilogues' reference (conv_test.go)
	"internal/sr/into.go AddInto": reference,

	"internal/codec/rate.go":                        roadmap, // figures item (3)
	"internal/metrics/metrics.go TemporalStability": roadmap, // quality item's temporal row
	"internal/sr/edsr.go (*Network).ExecutedMACs":   roadmap, // work counters
	"internal/sr/conv.go (*convPlan).macs":          roadmap,
}

// TestEveryDeclarationLinked builds the three commands and bench/ without
// inlining and fails on each non-test function or method of this module
// that none of the four binaries links and that unlinkedAllowed does not
// name. Without -l a function inlined at every call site has no symbol.
func TestEveryDeclarationLinked(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the allow-list is for amd64, where the non-amd64 twins are the unlinked side")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go command: %v", err)
	}
	bin := t.TempDir()
	goCmd := func(args ...string) {
		t.Helper()
		if out, err := exec.Command(gobin, args...).CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	goCmd("build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator),
		"./cmd/gssr", "./cmd/gssr-server", "./cmd/gssr-client")
	goCmd("build", "-C", "bench", "-gcflags=all=-l", "-o", filepath.Join(bin, "bench"), ".")

	// linked holds every text symbol with its type arguments cut out, so
	// "parallel.SumVec[go.shape.float64]" is "parallel.SumVec". The main
	// packages' symbols all read "main.…": each command's are kept apart.
	linked := map[string]bool{}
	mains := map[string]map[string]bool{}
	for _, name := range []string{"gssr", "gssr-server", "gssr-client", "bench"} {
		out, err := exec.Command(gobin, "tool", "nm", filepath.Join(bin, name)).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", name, err)
		}
		mains[name] = map[string]bool{}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			sym := stripTypeArgs(strings.Join(f[2:], " "))
			if strings.HasPrefix(sym, "main.") {
				mains[name][sym] = true
			} else {
				linked[sym] = true
			}
		}
	}

	fset := token.NewFileSet()
	var unlinked []string
	used := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() { // bench/ is a module of its own
			if path != "." && (d.Name() == "testdata" || d.Name() == "bench" ||
				strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Clean(dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		file := filepath.ToSlash(path)
		pkg := strings.TrimSuffix("gamestreamsr/"+filepath.ToSlash(filepath.Clean(dir)), "/.")
		syms := linked
		if f.Name.Name == "main" {
			pkg, syms = "main", mains[filepath.Base(dir)]
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil { // a body-less declaration is an assembly stub
				continue
			}
			if isLinked(syms, pkg, fd) {
				continue
			}
			key := file + " " + declName(fd)
			switch {
			case unlinkedAllowed[file] != "":
				used[file] = true
			case unlinkedAllowed[key] != "":
				used[key] = true
			default:
				unlinked = append(unlinked, fset.Position(fd.Pos()).String()+": "+declName(fd))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(unlinked)
	for _, u := range unlinked {
		t.Errorf("linked by no binary: %s", u)
	}
	for key, reason := range unlinkedAllowed {
		if !used[key] {
			t.Errorf("allow-list entry %q (%s) names no unlinked declaration", key, reason)
		}
	}
}

// declName is fd's name as a symbol names it, less the package path and
// type arguments: "F", "T.M" or "(*T).M".
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star, ok := typ.(*ast.StarExpr)
	if ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	if ok {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}

// isLinked reports whether syms holds fd under pkg. A value method counts
// when only its pointer wrapper (*T).M is linked, and an init when any of
// the package's numbered inits is.
func isLinked(syms map[string]bool, pkg string, fd *ast.FuncDecl) bool {
	name := declName(fd)
	if syms[pkg+"."+name] {
		return true
	}
	if fd.Recv != nil && !strings.HasPrefix(name, "(*") {
		recv, m, _ := strings.Cut(name, ".")
		return syms[pkg+".(*"+recv+")."+m]
	}
	if name == "init" {
		for s := range syms {
			if strings.HasPrefix(s, pkg+".init.") {
				return true
			}
		}
	}
	return false
}

// stripTypeArgs cuts every bracketed type-argument list out of a symbol.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
