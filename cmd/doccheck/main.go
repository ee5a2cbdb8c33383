// Command doccheck is the docs gate run by CI. It fails when an exported
// symbol of the target package (default: the repository root package, the
// public facade) is missing a doc comment, so the pkg.go.dev surface cannot
// silently rot — and when a solver of the Scenario/Solver API's solver
// table is missing from the user-facing docs (README.md, DESIGN.md and
// the `dcnflow run -h` usage text), so a solver cannot ship undocumented.
//
//	go run ./cmd/doccheck              # audit the root package + solver docs
//	go run ./cmd/doccheck -dir path    # audit another package directory
//	go run ./cmd/doccheck -cli=false   # skip the `dcnflow run -h` exec
//
// Checked declarations: exported functions, types, and every exported name
// inside const/var/type blocks. Names inside a documented group
// declaration (a var/const block with a doc comment per spec entry, the
// style the facade uses) pass when either the group or the spec is
// documented.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"dcnflow"
)

func main() {
	dir := flag.String("dir", ".", "package directory to audit")
	repo := flag.String("repo", ".", "repository root holding README.md and DESIGN.md")
	solvers := flag.Bool("solvers", true, "verify every registered solver name appears in README.md, DESIGN.md and `dcnflow run -h`")
	cli := flag.Bool("cli", true, "include the `dcnflow run -h` check (runs the go tool)")
	flag.Parse()
	missing, err := audit(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(1)
	}
	if *solvers {
		more, err := solverDocs(*repo, dcnflow.SolverNames(), *cli)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(1)
		}
		missing = append(missing, more...)
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d findings:\n", len(missing))
		for _, m := range missing {
			fmt.Fprintln(os.Stderr, " ", m)
		}
		os.Exit(1)
	}
	fmt.Printf("doccheck: %s clean\n", *dir)
}

// solverDocs verifies that every registered solver name appears in the
// repository's README.md and DESIGN.md and — when cli is set — in the
// generated `dcnflow run -h`, `dcnflow sweep -h` and `dcnflow serve -h`
// usages (obtained by running the command, so the check covers exactly
// what a user sees).
func solverDocs(repo string, names []string, cli bool) ([]string, error) {
	var missing []string
	for _, fname := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(filepath.Join(repo, fname))
		if err != nil {
			return nil, err
		}
		missing = append(missing, missingNames(fname, string(data), names)...)
	}
	if cli {
		for _, sub := range []string{"run", "sweep", "serve"} {
			cmd := exec.Command("go", "run", "./cmd/dcnflow", sub, "-h")
			cmd.Dir = repo
			out, err := cmd.CombinedOutput()
			if err != nil {
				return nil, fmt.Errorf("dcnflow %s -h: %v\n%s", sub, err, out)
			}
			missing = append(missing, missingNames("dcnflow "+sub+" -h", string(out), names)...)
			if sub == "serve" {
				missing = append(missing, missingFlags("dcnflow serve -h", string(out), serveFlags)...)
			}
		}
		more, err := decisionDocs(repo)
		if err != nil {
			return nil, err
		}
		missing = append(missing, more...)
		more, err = onlineDocs(repo)
		if err != nil {
			return nil, err
		}
		missing = append(missing, more...)
	}
	return missing, nil
}

// onlineDocs verifies the rolling scheduler's delta-solve surface stays
// documented: the `dcnflow online` usage text must define the delta flags,
// and README.md and DESIGN.md must mention the delta-solve itself.
func onlineDocs(repo string) ([]string, error) {
	cmd := exec.Command("go", "run", "./cmd/dcnflow", "online", "-h")
	cmd.Dir = repo
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("dcnflow online -h: %v\n%s", err, out)
	}
	missing := missingFlags("dcnflow online -h", string(out), onlineFlags)
	for _, fname := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(filepath.Join(repo, fname))
		if err != nil {
			return nil, err
		}
		re := regexp.MustCompile(`(^|[^a-zA-Z0-9-])delta-solve($|[^a-zA-Z0-9-])`)
		if !re.MatchString(string(data)) {
			missing = append(missing, fmt.Sprintf("%s: %q not mentioned", fname, "delta-solve"))
		}
	}
	return missing, nil
}

// decisionDocs verifies the decision-tracing surface stays documented: the
// `dcnflow decisions` usage text must define its mode and fitness flags, and
// README.md and DESIGN.md must mention the subcommand and the O2 experiment
// it drives.
func decisionDocs(repo string) ([]string, error) {
	cmd := exec.Command("go", "run", "./cmd/dcnflow", "decisions", "-h")
	cmd.Dir = repo
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("dcnflow decisions -h: %v\n%s", err, out)
	}
	missing := missingFlags("dcnflow decisions -h", string(out), decisionsFlags)
	for _, fname := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(filepath.Join(repo, fname))
		if err != nil {
			return nil, err
		}
		for _, name := range []string{"decisions", "O2"} {
			re := regexp.MustCompile(`(^|[^a-zA-Z0-9-])` + regexp.QuoteMeta(name) + `($|[^a-zA-Z0-9-])`)
			if !re.MatchString(string(data)) {
				missing = append(missing, fmt.Sprintf("%s: %q not mentioned", fname, name))
			}
		}
	}
	return missing, nil
}

// decisionsFlags are the flags `dcnflow decisions` must document in its
// usage text: the mode selector and the fitness weights.
var decisionsFlags = []string{"-mode", "-fit-energy", "-fit-miss", "-fit-slack", "-topk", "-require-regret", "-require-win"}

// serveFlags are the load-management flags `dcnflow serve` must document
// in its usage text: token-bucket admission control.
var serveFlags = []string{"-admit-rate", "-admit-burst", "-admit-queue"}

// onlineFlags are the delta-solve flags `dcnflow online` must document in
// its usage text.
var onlineFlags = []string{"-delta", "-delta-drift", "-delta-stale"}

// missingFlags reports the flags absent from a command's usage text. The
// flag package prints definitions with a single dash and leading
// whitespace, so "  -admit-rate" is matched; prose mentions do not count.
func missingFlags(source, text string, flags []string) []string {
	var missing []string
	for _, f := range flags {
		if !regexp.MustCompile(`(?m)^\s*` + regexp.QuoteMeta(f) + `\b`).MatchString(text) {
			missing = append(missing, fmt.Sprintf("%s: flag %s not documented", source, f))
		}
	}
	return missing
}

// missingNames reports the names absent from text, labelled by source. A
// name must appear as a whole word — solver names use [a-z0-9-], so any
// other character (backtick, comma, quote, space, line edge) delimits it.
// Bare substring matching would let prose like "exactly" satisfy the gate
// for the "exact" solver.
func missingNames(source, text string, names []string) []string {
	var missing []string
	for _, name := range names {
		re := regexp.MustCompile(`(^|[^a-z0-9-])` + regexp.QuoteMeta(name) + `($|[^a-z0-9-])`)
		if !re.MatchString(text) {
			missing = append(missing, fmt.Sprintf("%s: registered solver %q not mentioned", source, name))
		}
	}
	return missing
}

// audit parses the package in dir (tests excluded) and returns the
// positions of exported, undocumented declarations.
func audit(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s %s", p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Name, "_test") {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					// Methods count too: an exported method on an exported
					// receiver is API surface.
					if d.Name.IsExported() && d.Doc == nil {
						report(d.Pos(), "func", d.Name.Name)
					}
				case *ast.GenDecl:
					groupDoc := d.Doc != nil
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if sp.Name.IsExported() && !groupDoc && sp.Doc == nil {
								report(sp.Pos(), "type", sp.Name.Name)
							}
						case *ast.ValueSpec:
							if !groupDoc && sp.Doc == nil && sp.Comment == nil {
								for _, n := range sp.Names {
									if n.IsExported() {
										report(sp.Pos(), "value", n.Name)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(missing)
	return missing, nil
}
