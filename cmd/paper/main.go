// Command paper prints the tables of the paper's evaluation (§3) and of
// the extension studies, each at the size EXPERIMENTS.md documents and
// byte for byte as internal/experiments/testdata/<name>.golden pins it.
//
//	paper [-seed 20160226] [name ...]
//
// No name prints every table. A name selects its table, or every table
// it prefixes up to an underscore (exp2, exp2_gucheng); -h lists them.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"icewafl/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paper: ")
	seed := flag.Int64("seed", experiments.DefaultDataSeed, "dataset seed")
	all := experiments.Tables()
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "usage: paper [-seed N] [name ...]\n\ntables:\n")
		for _, t := range all {
			fmt.Fprintf(out, "  %-18s %s\n", t.Name, t.Artifact)
		}
		fmt.Fprintln(out)
		flag.PrintDefaults()
	}
	flag.Parse()

	tables, err := selectTables(all, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		flag.Usage()
		os.Exit(2)
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		if err := t.Print(os.Stdout, *seed); err != nil {
			log.Fatalf("%s: %v", t.Name, err)
		}
	}
}

// selectTables returns the tables the names select, in list order.
func selectTables(all []experiments.Table, names []string) ([]experiments.Table, error) {
	if len(names) == 0 {
		return all, nil
	}
	picked := make([]bool, len(all))
	for _, name := range names {
		found := false
		for i, t := range all {
			if t.Name == name || strings.HasPrefix(t.Name, name+"_") {
				picked[i], found = true, true
			}
		}
		if !found {
			return nil, fmt.Errorf("no table named %q", name)
		}
	}
	var out []experiments.Table
	for i, t := range all {
		if picked[i] {
			out = append(out, t)
		}
	}
	return out, nil
}
