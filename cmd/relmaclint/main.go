// Command relmaclint runs the project's static-analysis suite
// (internal/lint) over the module: seven checks built on a module-wide
// call graph and a lightweight dataflow layer. determinism and simsafe
// are reachability-based; hookpure and maporder guard the hook and
// map-order contracts of the slot loop. See the package documentation of
// internal/lint for the rules.
//
// Usage:
//
//	go run ./cmd/relmaclint [-json] [-checks determinism,hookpure] [-list] [patterns...]
//
// Patterns default to ./... and follow the go tool's convention
// (testdata, vendor and hidden directories are skipped). -list prints the
// registered checks and exits. The exit status is 1 when findings
// remain, 2 on a load failure or an unknown -checks name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"relmac/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON (for CI annotation)")
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default all: "+strings.Join(lint.CheckNames(), ",")+")")
	list := flag.Bool("list", false, "print the registered checks with their one-line docs and exit")
	dir := flag.String("C", ".", "directory to locate the module from")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := lint.FindModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "relmaclint: type error in %s: %v\n", p.Path, terr)
		}
	}

	cfg := lint.DefaultConfig()
	if *checks != "" {
		cfg.Checks = strings.Split(*checks, ",")
	}
	res, err := lint.NewSuite(loader, cfg).Run(pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "relmaclint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		for _, f := range res.Findings {
			fmt.Println(f)
		}
		fmt.Printf("relmaclint: %d package(s), %d finding(s)\n", len(pkgs), len(res.Findings))
	}
	if len(res.Findings) > 0 {
		os.Exit(1)
	}
}
