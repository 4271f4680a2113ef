// Command simlint runs the simulator's domain-specific static
// analyzers (internal/lint) over Go packages:
//
//	simlint ./...                 # whole module, human-readable
//	simlint -json ./...           # machine-readable findings
//	simlint -determinism=false .  # disable one analyzer
//	simlint -fix ./...            # apply suggested fixes in place
//	simlint -fix -dry-run ./...   # fail if fixes would apply
//	simlint -ignores ./...        # audit every //simlint:ignore
//
// Each analyzer has an enable flag named after it (default true);
// retired analyzer names (cycledrop) remain as deprecated aliases for
// their successors. Findings print as file:line:col: [analyzer]
// message. Exit status is 0 when clean, 1 when any finding is
// reported (or, under -fix -dry-run, when fixes would apply), 2 on
// load or usage errors. Suppress a finding with a `//simlint:ignore
// <analyzer> <reason>` comment on the offending line or the line
// above.
//
// Runs are incremental: per-package results are cached on disk
// (-cache-dir, default .simlintcache) keyed by the content of the
// package, its dependencies, the analyzer set, and the toolchain, so
// a warm run over an unchanged tree re-analyzes nothing. -cache=false
// disables the cache; -fix always runs uncached (fixes need live
// source positions). -j bounds parallel package analysis.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	fix := flag.Bool("fix", false, "apply suggested fixes to the source files")
	dryRun := flag.Bool("dry-run", false, "with -fix: report fixes without writing, exit 1 if any would apply")
	jobs := flag.Int("j", 0, "max concurrent package analyses (0 = GOMAXPROCS)")
	useCache := flag.Bool("cache", true, "reuse cached per-package results when inputs are unchanged")
	cacheDir := flag.String("cache-dir", ".simlintcache", "directory for the incremental cache")
	ignores := flag.Bool("ignores", false, "list every //simlint:ignore directive instead of analyzing")
	verbose := flag.Bool("v", false, "report cache statistics on stderr")
	enabled := map[string]*bool{}
	for _, a := range lint.All {
		enabled[a.Name] = flag.Bool(a.Name, true, "enable the "+a.Name+" analyzer: "+a.Doc)
	}
	for old, a := range lint.Aliases() {
		enabled[old] = flag.Bool(old, true, "deprecated alias for -"+a.Name)
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *ignores {
		return reportIgnores(patterns)
	}

	// A deprecated alias flag set to false disables its successor.
	off := map[string]bool{}
	flag.Visit(func(f *flag.Flag) {
		if v, ok := enabled[f.Name]; ok && !*v {
			if a := lint.ByName(f.Name); a != nil {
				off[a.Name] = true
			}
		}
	})
	var analyzers []*lint.Analyzer
	for _, a := range lint.All {
		if *enabled[a.Name] && !off[a.Name] {
			analyzers = append(analyzers, a)
		}
	}
	if len(analyzers) == 0 {
		fmt.Fprintln(os.Stderr, "simlint: every analyzer is disabled")
		return 2
	}

	driver := &lint.Driver{Analyzers: analyzers, Jobs: *jobs, CacheDir: *cacheDir}
	if !*useCache || (*fix && !*dryRun) {
		// Applying fixes needs live token positions, which cached
		// diagnostics (rendered to file:line:col) no longer carry.
		driver.CacheDir = ""
	}
	res, err := driver.Run(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	diags := res.Diags
	if *verbose {
		module := "miss"
		if res.Stats.ModuleHit {
			module = "hit"
		}
		fmt.Fprintf(os.Stderr, "simlint: cache: %d/%d package hits, module %s, %d loaded\n",
			res.Stats.PkgHits, res.Stats.Packages, module, res.Stats.Loaded)
	}

	if *fix && !*dryRun {
		fixed, err := lint.RenderFixes(res.Fset, diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
		if err := fixed.WriteFixes(); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "simlint: applied %d fix(es) in %d file(s)\n", fixed.Applied, len(fixed.Files))
		return 0
	}
	if *dryRun {
		// Fix presence survives the cache, so a dry run can be served
		// warm: count what -fix would change.
		would := 0
		for _, d := range diags {
			if d.Fix != nil {
				would++
				fmt.Fprintf(os.Stderr, "simlint: would fix %s (%s)\n", rel(d.File), d.Fix.Description)
			}
		}
		if would > 0 {
			fmt.Fprintf(os.Stderr, "simlint: %d fix(es) would apply; run simlint -fix\n", would)
			return 1
		}
		return 0
	}

	// Paths relative to the working directory read better and keep
	// output independent of where the checkout lives.
	for i := range diags {
		diags[i].File = rel(diags[i].File)
		if diags[i].Fix != nil {
			for j := range diags[i].Fix.Edits {
				diags[i].Fix.Edits[j].File = rel(diags[i].Fix.Edits[j].File)
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "simlint: %d finding(s) in %d package(s)\n", len(diags), res.Stats.Packages)
		}
		return 1
	}
	return 0
}

// reportIgnores lists every //simlint:ignore directive with its
// reason; a malformed directive (including a missing reason) makes
// the report exit 1, so the audit doubles as enforcement.
func reportIgnores(patterns []string) int {
	dirs, err := lint.Directives(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	bad := 0
	for _, d := range dirs {
		if d.Problem != "" {
			fmt.Printf("%s:%d: MALFORMED: %s\n", rel(d.File), d.Line, d.Problem)
			bad++
			continue
		}
		fmt.Printf("%s:%d: [%s] %s\n", rel(d.File), d.Line, d.Analyzer, d.Reason)
	}
	fmt.Fprintf(os.Stderr, "simlint: %d ignore directive(s)", len(dirs))
	if bad > 0 {
		fmt.Fprintf(os.Stderr, ", %d malformed", bad)
	}
	fmt.Fprintln(os.Stderr)
	if bad > 0 {
		return 1
	}
	return 0
}

// rel shortens an absolute path to one relative to the working
// directory when that stays inside it.
func rel(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	if r, err := filepath.Rel(wd, path); err == nil && !filepath.IsAbs(r) && r != "" {
		return r
	}
	return path
}
