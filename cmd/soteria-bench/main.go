// Command soteria-bench regenerates every table and figure of the
// paper's evaluation (§6) from the reproduction's corpora.
//
// Usage:
//
//	soteria-bench                 # everything
//	soteria-bench -table 2|3|4|maliot
//	soteria-bench -fig 11a|11b|union|verify
//	soteria-bench -ablation predicates|merging
//	soteria-bench -parallel N     # fan experiment analyses out over N workers
//	soteria-bench -obs-bench      # measure span-tracing overhead (off vs on)
//	                              # on a full analysis, write BENCH_obs.json,
//	                              # fail if the median overhead exceeds 3%
//	soteria-bench -cpuprofile F   # write a CPU profile of the run to F
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"github.com/soteria-analysis/soteria/internal/experiments"
)

func main() {
	table := flag.String("table", "", "regenerate one table: 2, 3, 4, or maliot")
	fig := flag.String("fig", "", "regenerate one figure: 11a, 11b, union, or verify")
	ablation := flag.String("ablation", "", "run one ablation: predicates or merging")
	parallel := flag.Int("parallel", 1, "fan batch analyses out over this many workers (outputs are identical at any setting)")
	obsBench := flag.Bool("obs-bench", false, "measure span-tracing overhead on a full analysis and write BENCH_obs.json")
	obsBenchOut := flag.String("obs-bench-out", "BENCH_obs.json", "output path for -obs-bench")
	obsBenchPairs := flag.Int("obs-bench-pairs", 40, "off/on measurement pairs for -obs-bench")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()

	experiments.Parallel = *parallel

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "soteria-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "soteria-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		// Stopped explicitly on the success paths below; error paths
		// os.Exit with a truncated profile, which pprof tolerates.
		defer pprof.StopCPUProfile()
	}

	if *obsBench {
		if err := runObsBench(*obsBenchPairs, *obsBenchOut); err != nil {
			fmt.Fprintf(os.Stderr, "soteria-bench: obs-bench: %v\n", err)
			pprof.StopCPUProfile()
			os.Exit(1)
		}
		return
	}

	all := *table == "" && *fig == "" && *ablation == ""
	ran := false

	run := func(name string, fn func() error) {
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "soteria-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
		ran = true
	}

	if all || *table == "2" {
		run("table 2", func() error {
			t, err := experiments.Table2()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if all || *table == "3" {
		run("table 3", func() error {
			t, err := experiments.Table3()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if all || *table == "4" {
		run("table 4", func() error {
			t, err := experiments.Table4()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if all || *table == "maliot" {
		run("maliot", func() error {
			t, _, err := experiments.MalIoTTable()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if all || *fig == "11a" {
		run("fig 11a", func() error {
			t, err := experiments.Fig11a()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if all || *fig == "11b" {
		run("fig 11b", func() error {
			s, err := experiments.Fig11b()
			if err != nil {
				return err
			}
			fmt.Print(s.String())
			return nil
		})
	}
	if all || *fig == "union" {
		run("union", func() error {
			t, err := experiments.UnionTiming()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if all || *fig == "verify" {
		run("verify", func() error {
			t, err := experiments.VerificationTiming()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if all || *ablation == "predicates" {
		run("ablation predicates", func() error {
			t, err := experiments.AblationPredicateLabels()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if all || *ablation == "merging" {
		run("ablation merging", func() error {
			t, err := experiments.AblationPathMerging()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}

	if !ran {
		fmt.Fprintln(os.Stderr, "soteria-bench: nothing selected")
		flag.PrintDefaults()
		os.Exit(2)
	}
}
