// Command reach fails when the module declares a function that no program
// links. It builds every program with inlining off, so that a one-line
// function keeps its symbol, reads each binary's symbols with `go tool nm`,
// and compares them with every function declared in a non-test file of a
// non-main package. A function that no program links must be listed in
// allow.txt with the reason it stays; a listed function that is now linked
// or no longer declared fails the check too, so the list cannot go stale.
//
// The programs are every main package of the module (cmd/ and examples/)
// and the benchmark harness in bench/, a module of its own that calls
// library code no command does.
//
// Run from the repository root:
//
//	go run ./cmd/reach
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const allowFile = "cmd/reach/allow.txt"

func main() {
	problems, summary, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "reach: %d problem(s); an unreached function goes, or gets a line with its reason in %s\n", len(problems), allowFile)
		os.Exit(1)
	}
	fmt.Println(summary)
}

func run() (problems []string, summary string, err error) {
	f, err := os.Open(allowFile)
	if err != nil {
		return nil, "", err
	}
	allow, err := readAllow(f)
	f.Close()
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", allowFile, err)
	}

	out, err := goCmd("", "list", "-f", "{{.Name}}\t{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \"\\t\"}}", "./...")
	if err != nil {
		return nil, "", err
	}
	var decls []string
	var mains []string
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		fields := strings.Split(line, "\t")
		name, path, dir := fields[0], fields[1], fields[2]
		if name == "main" {
			mains = append(mains, path)
			continue
		}
		for _, file := range fields[3:] {
			af, err := parser.ParseFile(fset, filepath.Join(dir, file), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, "", err
			}
			decls = append(decls, declared(path, af)...)
		}
	}

	tmp, err := os.MkdirTemp("", "reach")
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(tmp)
	// -l keeps every function out of line, so a function counts as linked
	// only if the linker kept its own symbol, whatever its size.
	build := append([]string{"build", "-gcflags=all=-l", "-o", tmp + string(filepath.Separator)}, mains...)
	if _, err := goCmd("", build...); err != nil {
		return nil, "", err
	}
	if _, err := goCmd("bench", "build", "-gcflags=all=-l", "-o", filepath.Join(tmp, "bench.harness"), "."); err != nil {
		return nil, "", err
	}
	bins, err := os.ReadDir(tmp)
	if err != nil {
		return nil, "", err
	}
	linkedSyms := map[string]bool{}
	for _, b := range bins {
		nm, err := goCmd("", "tool", "nm", filepath.Join(tmp, b.Name()))
		if err != nil {
			return nil, "", err
		}
		for s := range linked(nm) {
			linkedSyms[s] = true
		}
	}
	problems = check(decls, linkedSyms, allow)
	summary = fmt.Sprintf("reach: %d programs link %d of %d declared functions; the other %d are in %s",
		len(bins), len(decls)-len(allow), len(decls), len(allow), allowFile)
	return problems, summary, nil
}

// goCmd runs the go command in dir and returns its standard output; a
// failure carries the command's standard error.
func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return string(out), nil
}

// declared returns the linker's name for every function and method that
// file declares in the package at path: path.F, path.T.M or path.(*T).M.
// init functions are left out; they run whenever their package is linked.
func declared(path string, file *ast.File) []string {
	var names []string
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
			continue
		}
		if fd.Recv == nil || len(fd.Recv.List) == 0 {
			names = append(names, path+"."+fd.Name.Name)
			continue
		}
		typ := fd.Recv.List[0].Type
		star := false
		if s, ok := typ.(*ast.StarExpr); ok {
			star, typ = true, s.X
		}
		// A generic receiver names its type parameters: T[K] or T[K, V].
		switch t := typ.(type) {
		case *ast.IndexExpr:
			typ = t.X
		case *ast.IndexListExpr:
			typ = t.X
		}
		recv := typ.(*ast.Ident).Name
		if star {
			recv = "(*" + recv + ")"
		}
		names = append(names, path+"."+recv+"."+fd.Name.Name)
	}
	return names
}

// linked returns the names of the text symbols in the output of go tool
// nm, with every type argument list stripped, so that a method of a
// generic type (pkg.(*T[go.shape.int]).M) reads as declared (pkg.(*T).M).
func linked(nm string) map[string]bool {
	syms := map[string]bool{}
	for _, line := range strings.Split(nm, "\n") {
		// Each line is "address type name"; a name may hold spaces inside
		// its type arguments.
		fields := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(fields) < 3 || (fields[1] != "T" && fields[1] != "t") {
			continue
		}
		syms[stripTypeArgs(fields[2])] = true
	}
	return syms
}

// stripTypeArgs removes every bracketed list, nested ones included.
func stripTypeArgs(name string) string {
	if !strings.Contains(name, "[") {
		return name
	}
	var b strings.Builder
	depth := 0
	for _, r := range name {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// readAllow reads the allowlist: one "symbol reason" per line. A line
// without a reason is an error.
func readAllow(r io.Reader) (map[string]string, error) {
	allow := map[string]string{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		sym, reason, _ := strings.Cut(sc.Text(), " ")
		if sym == "" || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("line %d: %q gives no reason", n, sym)
		}
		allow[sym] = reason
	}
	return allow, sc.Err()
}

// check returns one line for each declared function that is neither
// linked nor listed, and for each listed function that is linked or not
// declared.
func check(decls []string, linked map[string]bool, allow map[string]string) []string {
	var problems []string
	isDecl := map[string]bool{}
	for _, d := range decls {
		isDecl[d] = true
		if !linked[d] && allow[d] == "" {
			problems = append(problems, "unreached: "+d)
		}
	}
	for sym := range allow {
		switch {
		case !isDecl[sym]:
			problems = append(problems, "stale (not declared): "+sym)
		case linked[sym]:
			problems = append(problems, "stale (linked): "+sym)
		}
	}
	sort.Strings(problems)
	return problems
}
