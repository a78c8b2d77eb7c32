// Command greenlint runs the Green API static-analysis suite: the
// compile-time contract the paper gets from its Phoenix compiler
// extension, restored for this library port (see green/internal/lint).
//
// Usage:
//
//	greenlint ./...                      # lint the whole module
//	greenlint ./examples/quickstart      # lint one directory
//	greenlint -checks finishpath,ctrlcopy ./...
//	greenlint -format sarif ./... > greenlint.sarif
//	greenlint -list                      # list available checks
//
// Arguments are package patterns (resolved through `go list`) or plain
// directories; directories may point anywhere inside the module,
// including testdata trees the go tool refuses to build. Packages are
// loaded and analyzed in parallel; output order is deterministic.
//
// -format selects the output: "text" (default) prints
// "file:line: [check] message" lines, "json" a flat findings array, and
// "sarif" a SARIF 2.1.0 log suitable for GitHub code scanning. Findings
// suppressed in source via "//greenlint:ignore <check> <reason>" are
// excluded from the text stream (and from the exit status) but carried
// in json/sarif output with their justification.
//
// The exit status is 1 when active findings exist, 2 on load/usage
// errors, 0 when clean.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"green/internal/lint"
)

func main() {
	var (
		checks = flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
		format = flag.String("format", lint.FormatText, "output format: text, json, or sarif")
		list   = flag.Bool("list", false, "list available checks and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: greenlint [-checks name,...] [-format text|json|sarif] [-list] [packages]\n\n"+
				"Lints Green API usage. Packages default to ./...; arguments may be\n"+
				"go-list patterns or plain directories.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %-10s %s\n", a.Name, a.Tier, a.Doc)
		}
		return
	}
	outFormat, err := lint.ParseFormat(*format)
	if err != nil {
		fatal(err)
	}
	names, err := parseChecks(*checks)
	if err != nil {
		fatal(err)
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	dirs, err := resolveDirs(args)
	if err != nil {
		fatal(err)
	}

	results, err := lintAll(dirs, names)
	if err != nil {
		fatal(err)
	}
	merged := lint.Merge(results)

	cwd, _ := os.Getwd()
	switch outFormat {
	case lint.FormatText:
		err = lint.WriteText(os.Stdout, merged, cwd)
	case lint.FormatJSON:
		err = lint.WriteJSON(os.Stdout, merged, cwd)
	case lint.FormatSARIF:
		err = lint.WriteSARIF(os.Stdout, merged, cwd)
	}
	if err != nil {
		fatal(err)
	}

	if n := len(merged.Diags); n > 0 {
		fmt.Fprintf(os.Stderr, "greenlint: %d finding(s)%s\n", n, suppressedNote(merged))
		os.Exit(1)
	}
	if len(merged.Suppressed) > 0 {
		fmt.Fprintf(os.Stderr, "greenlint: clean (%d finding(s) suppressed in source)\n", len(merged.Suppressed))
	}
}

// parseChecks splits and validates the -checks flag. Unknown names are a
// usage error (exit 2) listing the valid set, so a typo never silently
// skips a check. An empty flag selects every check.
func parseChecks(flagValue string) ([]string, error) {
	var names []string
	for _, n := range strings.Split(flagValue, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		if lint.ByName(n) == nil {
			var valid []string
			for _, a := range lint.Analyzers() {
				valid = append(valid, fmt.Sprintf("%s(%s)", a.Name, a.Tier))
			}
			return nil, fmt.Errorf("unknown check %q (valid: %s)", n, strings.Join(valid, ", "))
		}
		names = append(names, n)
	}
	return names, nil
}

// lintAll loads and lints every directory across a worker pool. The
// source importer is not safe for concurrent use, so each worker owns a
// private Loader; results land in an index-addressed slice, keeping
// output deterministic regardless of completion order.
func lintAll(dirs []string, names []string) ([]lint.Result, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(dirs) {
		workers = len(dirs)
	}
	if workers < 1 {
		workers = 1
	}

	results := make([]lint.Result, len(dirs))
	errs := make([]error, len(dirs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loader := lint.NewLoader()
			for i := range next {
				pkg, err := loader.Load(dirs[i])
				if err != nil {
					errs[i] = err
					continue
				}
				results[i], errs[i] = lint.LintAll(pkg, names)
			}
		}()
	}
	for i := range dirs {
		next <- i
	}
	close(next)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func suppressedNote(res lint.Result) string {
	if len(res.Suppressed) == 0 {
		return ""
	}
	return fmt.Sprintf(", %d suppressed", len(res.Suppressed))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "greenlint: %v\n", err)
	os.Exit(2)
}

// resolveDirs expands the argument list into package directories: an
// argument naming an existing directory is used as-is; everything else
// is treated as a go-list pattern.
func resolveDirs(args []string) ([]string, error) {
	var dirs, patterns []string
	for _, a := range args {
		if st, err := os.Stat(a); err == nil && st.IsDir() {
			dirs = append(dirs, a)
		} else {
			patterns = append(patterns, a)
		}
	}
	if len(patterns) > 0 {
		expanded, err := goList(patterns)
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, expanded...)
	}
	seen := map[string]bool{}
	var out []string
	for _, d := range dirs {
		abs, err := filepath.Abs(d)
		if err != nil {
			return nil, err
		}
		if !seen[abs] {
			seen[abs] = true
			out = append(out, abs)
		}
	}
	return out, nil
}

// goList resolves package patterns to directories via the go tool.
func goList(patterns []string) ([]string, error) {
	cmd := exec.Command("go", append([]string{"list", "-f", "{{.Dir}}"}, patterns...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s",
			strings.Join(patterns, " "), err, strings.TrimSpace(stderr.String()))
	}
	var dirs []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if line != "" {
			dirs = append(dirs, line)
		}
	}
	return dirs, nil
}
