// Command experiments regenerates every table and figure from the
// paper's evaluation (§7). With no arguments it runs the full suite;
// pass experiment names to run a subset.
//
//	experiments                # everything (quick settings)
//	experiments -full fig6     # one experiment at paper-scale settings
//	experiments table1 fig9
//
// Available: fig1 fig2 table1 fig5 fig6 phases fig7 fig8 fig9 text2sql
// fig10 ablations.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dandelion/internal/model/experiments"
)

func main() {
	full := flag.Bool("full", false, "paper-scale parameters (slower)")
	rows := flag.Int("ssb-rows", 400_000, "SSB fact rows for fig9")
	llmDelay := flag.Duration("llm-delay", 120*time.Millisecond, "mock LLM inference delay for text2sql")
	flag.Parse()
	quick := !*full

	drivers := map[string]func() experiments.Table{
		"fig1":     func() experiments.Table { return experiments.Fig1(quick) },
		"fig2":     func() experiments.Table { return experiments.Fig2(quick) },
		"table1":   experiments.Table1,
		"fig5":     func() experiments.Table { return experiments.Fig5(quick) },
		"fig6":     func() experiments.Table { return experiments.Fig6(quick) },
		"phases":   experiments.FigPhases,
		"fig7":     func() experiments.Table { return experiments.Fig7(quick) },
		"fig8":     func() experiments.Table { return experiments.Fig8(quick) },
		"fig9":     func() experiments.Table { return experiments.Fig9(*rows) },
		"text2sql": func() experiments.Table { return experiments.Text2SQLTable(*llmDelay) },
		"fig10":    func() experiments.Table { return experiments.Fig10(quick) },
	}
	order := []string{"fig1", "fig2", "table1", "fig5", "fig6", "phases",
		"fig7", "fig8", "fig9", "text2sql", "fig10"}
	ablations := []func() experiments.Table{
		experiments.AblationWarmCache,
		experiments.AblationStaticSplit,
		experiments.AblationBinaryCache,
	}

	args := flag.Args()
	if len(args) == 0 {
		args = append(order, "ablations")
	}
	for _, name := range args {
		if name == "ablations" {
			for _, f := range ablations {
				fmt.Println(f())
			}
			continue
		}
		d, ok := drivers[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have: %v, ablations)\n", name, order)
			os.Exit(2)
		}
		start := time.Now()
		tab := d()
		fmt.Println(tab)
		fmt.Printf("(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
