// Command tereport regenerates every table and figure of the paper's
// evaluation (§5) in one run and prints them in the paper's layout.
//
// Usage:
//
//	tereport [-quick] [-table N] [-figure N] [-seed S]
//
// Without -table/-figure flags it runs everything. -quick uses the
// scaled-down setup (smaller DNN, shorter training) that finishes in a
// couple of minutes on a laptop; the default mirrors §5's configuration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dote"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "use the scaled-down configuration")
	table := flag.Int("table", 0, "only regenerate this table (1, 2 or 3)")
	figure := flag.Int("figure", 0, "only regenerate this figure (3 or 5)")
	seed := flag.Uint64("seed", 1, "experiment seed")
	verbose := flag.Bool("v", false, "progress output")
	extended := flag.Bool("extended", false, "also run hill-climbing and simulated-annealing baselines")
	shift := flag.Bool("shift", false, "also evaluate the trained models under a fiber-cut traffic shift")
	ablations := flag.Bool("ablations", false, "run the DESIGN.md §5 ablations instead of the tables")
	topo := flag.String("topology", "abilene", "topology: abilene, geant, b4, triangle")
	metrics := flag.String("metrics", "", `dump telemetry to stderr at exit: "text" or "json"; also adds a telemetry column to the comparison tables (default off)`)
	flag.Parse()

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		defer func() {
			snap := reg.Snapshot()
			if *metrics == "json" {
				enc := json.NewEncoder(os.Stderr)
				enc.SetIndent("", "  ")
				if err := enc.Encode(snap); err != nil {
					fmt.Fprintf(os.Stderr, "# metrics dump failed: %v\n", err)
				}
				return
			}
			if err := snap.WriteText(os.Stderr); err != nil {
				fmt.Fprintf(os.Stderr, "# metrics dump failed: %v\n", err)
			}
		}()
	}

	all := *table == 0 && *figure == 0 && !*ablations
	logf := func(string) {}
	if *verbose {
		logf = func(s string) { fmt.Fprintln(os.Stderr, "# "+s) }
	}

	setupOpts := func(v dote.Variant) experiments.SetupOptions {
		opts := experiments.DefaultSetup(v)
		if *quick {
			opts = experiments.QuickSetup(v)
		}
		opts.Topology = *topo
		opts.Seed = *seed
		opts.Verbose = logf
		opts.Obs = reg
		return opts
	}
	setup := func(v dote.Variant) *experiments.Setup {
		return prepare(setupOpts(v))
	}
	budgets := experiments.DefaultBudgets()
	budgets.Gradient.Obs = reg
	if *quick {
		budgets.RandomEvals = 100
		budgets.WhiteboxNodes = 30
		budgets.WhiteboxTime = 20 * time.Second
		// The gradient search is cheap enough to keep its full budget even
		// in quick mode; its wall-clock stays around a second.
	}

	var currSetup *experiments.Setup

	runComparison := func(s *experiments.Setup) []experiments.MethodRow {
		var rows []experiments.MethodRow
		var err error
		if *extended {
			rows, err = experiments.RunComparisonExtended(s, budgets)
		} else {
			rows, err = experiments.RunComparison(s, budgets)
		}
		if err != nil {
			fatal(err)
		}
		return rows
	}
	reportShift := func(s *experiments.Setup) {
		if !*shift {
			return
		}
		res, err := experiments.ShiftEvaluation(s, []int{0, 7, 23}, 0.6, 40)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("under a fiber-cut-style shift: test mean ratio %.3f -> %.3f (max %.2f -> %.2f)\n",
			res.Normal.MeanRatio, res.Shifted.MeanRatio, res.Normal.MaxRatio, res.Shifted.MaxRatio)
	}

	if *ablations {
		runAblations(setupOpts, *quick)
		return
	}

	if all || *table == 1 {
		s := setup(dote.Hist)
		printComparison("TABLE 1: DOTE-Hist (history window = 12 epochs)", runComparison(s))
		reportShift(s)
	}
	if (all || *table == 2 || *table == 3 || *figure == 5) && currSetup == nil {
		currSetup = setup(dote.Curr)
	}
	if all || *table == 2 {
		printComparison("TABLE 2: DOTE-Curr (input = current matrix)", runComparison(currSetup))
		reportShift(currSetup)
	}
	if all || *table == 3 {
		base := budgets.Gradient
		rows, err := experiments.RunSensitivity(currSetup, []float64{0.01, 0.005, 0.05}, base)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nTABLE 3: sensitivity to the multiplier step size α_λ (α_d = α_f = 0.01)")
		fmt.Printf("%-12s %-16s %s\n", "alpha_L", "Discovered ratio", "Runtime")
		for _, r := range rows {
			fmt.Printf("%-12g %-16s %v\n", r.AlphaL, fmt.Sprintf("%.2fx", r.Ratio), r.Runtime.Round(time.Millisecond))
		}
	}
	if all || *figure == 3 {
		rows, err := experiments.Figure3()
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nFIGURE 3: split ratios alone do not determine MLU (triangle, caps=100,")
		fmt.Println("demands 1->2 = 1->3 = 100)")
		for _, r := range rows {
			fmt.Printf("  %-30s MLU = %g\n", r.Name, r.MLU)
		}
	}
	if all || *figure == 5 {
		gcfg := budgets.Gradient
		gcfg.Seed = *seed + 400
		res, err := core.GradientSearch(currSetup.Target, gcfg)
		if err != nil {
			fatal(err)
		}
		if res.FaultCount > 0 {
			fmt.Fprintf(os.Stderr, "# figure 5 search: %d restart fault(s) contained (stop reason: %s)\n",
				res.FaultCount, res.StopReason)
		}
		if !res.Found {
			fmt.Printf("\nFIGURE 5: no adversarial input found (stop reason: %s); cannot draw CDF\n", res.StopReason)
		} else {
			data := experiments.Figure5(currSetup, res.BestX)
			fmt.Println("\nFIGURE 5: demand sizes (normalized by avg link capacity), CDF")
			fmt.Printf("%-12s %-12s %s\n", "threshold", "training", "adversarial")
			for i, th := range data.Thresholds {
				fmt.Printf("%-12.2f %-12.3f %.3f\n", th, data.Training[i], data.Adversarial[i])
			}
			fmt.Printf("share of volume on top-5 pairs: training %.0f%%, adversarial %.0f%%\n",
				100*data.TopShareTraining, 100*data.TopShareAdversarial)
		}
	}
}

// prepare trains the model an evaluation run needs, exiting on error.
func prepare(opts experiments.SetupOptions) *experiments.Setup {
	s, err := experiments.Prepare(opts)
	if err != nil {
		fatal(err)
	}
	return s
}

// runAblations executes the DESIGN.md §5 ablation suite and prints one table
// per knob. Most knobs share one DOTE-Curr setup; the history-length and
// topology-scale rows train their own models.
func runAblations(setupOpts func(dote.Variant) experiments.SetupOptions, quick bool) {
	s := prepare(setupOpts(dote.Curr))
	base := core.DefaultGradientConfig()
	if quick {
		base.Iters = 100
		base.Restarts = 1
	}
	printAblation := func(title string, rows []experiments.AblationRow, err error) {
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nABLATION: " + title)
		fmt.Printf("%-27s %-9s %-9s %-11s %s\n", "config", "ratio", "runtime", "grad evals", "true evals")
		for _, r := range rows {
			ratio := "—"
			if r.Found {
				ratio = fmt.Sprintf("%.2fx", r.Ratio)
			}
			trueEvals := "—" // analytic count unavailable (e.g. exact chain rule)
			if r.TrueEvals >= 0 {
				trueEvals = fmt.Sprintf("%d", r.TrueEvals)
			}
			fmt.Printf("%-27s %-9s %-9s %-11d %s\n", r.Config, ratio, r.Runtime.Round(time.Millisecond), r.GradEvals, trueEvals)
		}
	}
	rows, err := experiments.AblationInnerSteps(s, []int{1, 2, 4}, base)
	printAblation("inner ascent steps T (Eq. 5)", rows, err)
	rows, err = experiments.AblationRestarts(s, []int{1, 2, 4}, base)
	printAblation("random restarts", rows, err)
	rows, err = experiments.AblationObjective(s, base)
	printAblation("objective (Lagrangian vs direct ascent)", rows, err)
	rows, err = experiments.AblationMomentum(s, []float64{0, 0.5, 0.9}, base)
	printAblation("momentum on the demand ascent", rows, err)
	estBase := base
	estBase.Iters = 40
	rows, err = experiments.AblationGradientEstimator(s, estBase)
	printAblation("gradient estimator (gray-box spectrum)", rows, err)
	fmt.Println("\nPARALLELISM: gradients/second, scalar workers vs lock-step batch")
	prs := experiments.AblationParallelism(s, []int{1, 2, 4}, 32)
	for _, pr := range prs {
		fmt.Printf("workers=%d: %.0f grads/s\n", pr.Workers, pr.Throughput)
	}
	if len(prs) > 0 && prs[0].BatchedThroughput > 0 {
		fmt.Printf("one restart group (one [32,n] lock-step batch): %.0f grads/s (%.2fx vs 1 worker)\n",
			prs[0].BatchedThroughput, prs[0].BatchedThroughput/prs[0].Throughput)
	}
	rows, err = experiments.AblationHistoryLength(setupOpts(dote.Hist), []int{2, 6, 12}, base)
	printAblation("DOTE-Hist history length K (one model trained per K)", rows, err)
	scale, err := experiments.RunTopologyScale(setupOpts(dote.Curr), []string{"triangle", "abilene", "geant"}, base)
	if err != nil {
		fatal(err)
	}
	fmt.Println("\nTOPOLOGY SCALE: one DOTE-Curr model trained and attacked per topology")
	fmt.Printf("%-10s %-6s %-9s %s\n", "topology", "pairs", "ratio", "runtime")
	for _, r := range scale {
		fmt.Printf("%-10s %-6d %-9s %s\n", r.Topology, r.Pairs, fmt.Sprintf("%.2fx", r.Ratio), r.Runtime.Round(time.Millisecond))
	}
}

func printComparison(title string, rows []experiments.MethodRow) {
	fmt.Println("\n" + title)
	// The telemetry column only appears when at least one row carries a
	// summary (i.e. -metrics was given), so default output is unchanged.
	withTelemetry := false
	for _, r := range rows {
		if r.Telemetry != "" {
			withTelemetry = true
			break
		}
	}
	if withTelemetry {
		fmt.Printf("%-28s %-18s %-12s %-34s %s\n", "Method", "Discovered ratio", "Runtime", "Notes", "Telemetry")
	} else {
		fmt.Printf("%-28s %-18s %-12s %s\n", "Method", "Discovered ratio", "Runtime", "Notes")
	}
	for _, r := range rows {
		rt := "-"
		if r.Runtime > 0 {
			rt = r.Runtime.Round(time.Millisecond).String()
		}
		if withTelemetry {
			tel := r.Telemetry
			if tel == "" {
				tel = "-"
			}
			fmt.Printf("%-28s %-18s %-12s %-34s %s\n", r.Method, r.FormatRatio(), rt, r.Note, tel)
			continue
		}
		fmt.Printf("%-28s %-18s %-12s %s\n", r.Method, r.FormatRatio(), rt, r.Note)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tereport:", err)
	os.Exit(1)
}
