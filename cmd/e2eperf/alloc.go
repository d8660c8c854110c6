package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/alloc"
	"repro/internal/core"
)

// cmdAlloc runs the second case study end to end: train (or load) the VM
// allocator's scorer, then attack it over request-mix vectors with the same
// gray-box gradient search the TE case study uses, scoring every candidate
// against the packing MILP through RatioOverride. Honors the shared
// -timeout, -metrics, -quick, -seed and -weights flags; -variant,
// -topology and -setup are TE-specific and ignored here.
func cmdAlloc(args []string) error {
	c := newCommon("alloc")
	iters := c.fs.Int("iters", 200, "outer ascent iterations per restart")
	restarts := c.fs.Int("restarts", 6, "random restarts")
	alphaD := c.fs.Float64("alpha-d", 0.5, "request-mix step size")
	evalEvery := c.fs.Int("eval-every", 2, "iterations between true MILP-ratio evaluations")
	epochs := c.fs.Int("epochs", 0, "scorer training epochs (0 = config default)")
	opaque := c.fs.Bool("opaque", false, "treat the whole allocator as one black box (FD/SPSA over request mixes) instead of the staged gray-box pipeline")
	spsa := c.fs.Int("spsa", 0, "with an opaque stage: estimate gradients with this many SPSA probes instead of coordinate FD (0 = FD)")
	fdStep := c.fs.Float64("fd-step", 1e-4, "finite-difference / SPSA probe step")
	evalCacheSize := c.fs.Int("eval-cache", 4096, "memoize MILP-ratio scoring in a cache of this many entries (0 = off)")
	jsonOut := c.fs.String("json", "", "write the full result (including the adversarial mix) to this file")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	stop, err := c.instrument()
	if err != nil {
		return err
	}
	defer stop()

	cfg := alloc.DefaultConfig()
	if *c.quick {
		cfg = alloc.QuickConfig()
	}
	if *c.hidden != "" {
		widths, err := parseWidths(*c.hidden)
		if err != nil {
			return fmt.Errorf("-hidden: %w", err)
		}
		cfg.Hidden = widths
	}
	if *epochs > 0 {
		cfg.TrainEpochs = *epochs
	}
	cfg.Seed = *c.seed
	sys, err := alloc.New(cfg)
	if err != nil {
		return err
	}
	// Surface the packing MILP's warm-engine telemetry (milp.nodes,
	// milp.warm_hits, lp.bounds.* …) through the shared -metrics registry.
	sys.Obs = c.registry()
	fmt.Printf("VM allocator: %d types x %d hosts x %d resources, request-mix box [0, %g]\n",
		sys.T, sys.H, sys.R, cfg.MaxCount)

	// -weights is the scorer checkpoint: load it when the file exists so the
	// attack hits exactly a previously trained scorer, train and save
	// otherwise.
	loaded := false
	if *c.weights != "" {
		if f, err := os.Open(*c.weights); err == nil {
			lerr := sys.LoadScorer(f)
			f.Close()
			if lerr != nil {
				return fmt.Errorf("loading %s: %w", *c.weights, lerr)
			}
			fmt.Fprintf(os.Stderr, "# loaded scorer checkpoint %s (training skipped)\n", *c.weights)
			loaded = true
		}
	}
	if !loaded {
		var progress func(string)
		if *c.verbose {
			progress = func(s string) { fmt.Fprintln(os.Stderr, "# "+s) }
		}
		sys.Train(progress)
		if *c.weights != "" {
			f, err := os.Create(*c.weights)
			if err != nil {
				return err
			}
			if err := sys.SaveScorer(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("scorer checkpoint saved to %s\n", *c.weights)
		}
	}

	avg, err := sys.Explain(sys.AverageMix())
	if err != nil {
		return err
	}
	fmt.Printf("average mix %v: packing ratio %.4f (sys %.4f / opt %.4f), fragmentation %.3f [milp %s, %d nodes, gap %.2g]\n",
		avg.Counts, avg.Ratio, avg.SysUtil, avg.OptUtil, avg.Fragmentation, avg.MILPStatus, avg.MILPNodes, avg.Gap)

	target := sys.Target(alloc.PipelineOptions{
		Opaque:      *opaque,
		SPSASamples: *spsa,
		FDStep:      *fdStep,
		Seed:        *c.seed,
	})
	gcfg := core.DefaultGradientConfig()
	gcfg.Iters = *iters
	gcfg.Restarts = *restarts
	gcfg.AlphaD = *alphaD
	gcfg.EvalEvery = *evalEvery
	gcfg.Seed = *c.seed + 400
	gcfg.Obs = c.registry()
	if *evalCacheSize > 0 {
		// Quantum 1.0 aligns cache keys with Quantize's integer rounding, so
		// every continuous point mapping to the same VM counts scores once.
		gcfg.EvalCache = core.NewEvalCache(*evalCacheSize, 1.0)
	}
	ctx, cancel := c.searchCtx()
	defer cancel()
	// Bind the search context into the baseline so -timeout also interrupts
	// in-flight packing MILP solves, not just the outer search loop.
	sys.Bind(ctx)
	res, err := core.GradientSearchContext(ctx, target, gcfg)
	if err != nil {
		return err
	}
	// The search context may already be expired here (that's how -timeout
	// ends a run); the final report's Explain solves must not inherit it.
	sys.Bind(context.Background())
	fmt.Println(res)
	reportStop(res)
	if res.Found {
		adv, err := sys.Explain(res.BestX)
		if err != nil {
			return err
		}
		fmt.Printf("worst-case mix %v: packing ratio %.4f (sys %.4f / opt %.4f), fragmentation %.3f [milp %s, %d nodes, gap %.2g, lp bound %.4f]\n",
			adv.Counts, adv.Ratio, adv.SysUtil, adv.OptUtil, adv.Fragmentation, adv.MILPStatus, adv.MILPNodes, adv.Gap, adv.LPBound)
		fmt.Printf("=> the learned allocator strands %.1f%% more peak capacity than the exact packer on this mix (vs %.1f%% at the average mix)\n",
			100*(adv.Ratio-1), 100*(avg.Ratio-1))
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("result written to %s\n", *jsonOut)
	}
	return nil
}
