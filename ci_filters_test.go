package sljmotion_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIFiltersMatchTests guards the CI workflow against steps that run
// nothing: every |-alternative of a -run, -bench or -fuzz pattern in
// .github/workflows/ci.yml must match a Test, Fuzz or Benchmark function
// in the packages its command names. Deleting or renaming a test that a
// step selects by name fails here instead of emptying that step. A -run
// next to -bench or -fuzz only switches the plain tests off ('^$', XXX)
// and is not checked.
func TestCIFiltersMatchTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	// Join shell line continuations, so a command is one line.
	text := strings.ReplaceAll(string(raw), "\\\n", " ")
	filters := 0
	for _, line := range strings.Split(text, "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		flags, pkgs := parseGoTest(cmd)
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		for _, flag := range []string{"run", "bench", "fuzz"} {
			pattern, ok := flags[flag]
			if !ok || (flag == "run" && (flags["bench"] != "" || flags["fuzz"] != "")) {
				continue
			}
			filters++
			names := testFuncs(t, pkgs, flag)
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml: -%s alternative %q: %v", flag, alt, err)
					continue
				}
				if !matchesAny(re, names) {
					t.Errorf("ci.yml: -%s alternative %q matches nothing in %v\n\tgo test %s", flag, alt, pkgs, cmd)
				}
			}
		}
	}
	if filters == 0 {
		t.Fatal("found no go test filter in ci.yml; the parser no longer reads it")
	}
}

// parseGoTest splits the arguments of one go test command line into its
// -run/-bench/-fuzz values and its package patterns, stopping at a shell
// operator. Single quotes group as in the shell.
func parseGoTest(cmd string) (map[string]string, []string) {
	var args []string
	var cur strings.Builder
	quoted, inArg := false, false
	for _, r := range cmd + " " {
		switch {
		case r == '\'':
			quoted, inArg = !quoted, true
		case r == ' ' && !quoted:
			if inArg {
				args = append(args, cur.String())
				cur.Reset()
				inArg = false
			}
		default:
			cur.WriteRune(r)
			inArg = true
		}
	}
	flags := map[string]string{}
	var pkgs []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "|" || a == "&&" || a == ">" || a == ";":
			return flags, pkgs
		case (a == "-run" || a == "-bench" || a == "-fuzz") && i+1 < len(args):
			flags[a[1:]] = args[i+1]
			i++
		case a == "." || strings.HasPrefix(a, "./"):
			pkgs = append(pkgs, a)
		}
	}
	return flags, pkgs
}

var testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)

// testFuncs lists the test functions a -flag pattern is matched against
// in the package directories pkgs ("./x/..." walks x recursively): Test
// and Fuzz for -run, Benchmark for -bench, Fuzz for -fuzz.
func testFuncs(t *testing.T, pkgs []string, flag string) []string {
	t.Helper()
	prefixes := map[string][]string{"run": {"Test", "Fuzz"}, "bench": {"Benchmark"}, "fuzz": {"Fuzz"}}[flag]
	var names []string
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(pkg, "/...")
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != dir && (!recursive || d.Name() == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
				for _, p := range prefixes {
					if strings.HasPrefix(m[1], p) {
						names = append(names, m[1])
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("ci.yml names package %s: %v", pkg, err)
		}
	}
	return names
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
