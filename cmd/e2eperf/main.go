// Command e2eperf is the analyzer's main CLI. Subcommands:
//
//	train       train a DOTE variant on synthetic traffic and save weights
//	attack      run the gray-box gradient search against a trained model
//	compare     run all methods (test set, random, white-box, gradient)
//	sensitivity reproduce the step-size sensitivity study
//	corpus      train a GAN corpus of adversarial inputs (§6)
//	harden      adversarially retrain a model (§6)
//	versus      compare DOTE-Hist against a Teal-like baseline (§6)
//	simulate    replay a saved attack result through the fluid simulator
//	evaluate    score a trained model on externally supplied traffic matrices
//	serve       run the analyzer daemon: job queue over HTTP, /metrics
//	gate        CI gate: bound a checkpoint's adversarial ratio, exit 2 on breach
//	alloc       second case study: attack the ML-augmented VM allocator
//
// Every subcommand accepts -quick for laptop-scale budgets and -seed for
// reproducibility. Trained state moves between invocations via -setup
// (full checkpoint, skips retraining) or -weights (network weights only).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dote"
	"repro/internal/experiments"
	"repro/internal/gan"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/robust"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "train":
		err = cmdTrain(args)
	case "attack":
		err = cmdAttack(args)
	case "compare":
		err = cmdCompare(args)
	case "sensitivity":
		err = cmdSensitivity(args)
	case "corpus":
		err = cmdCorpus(args)
	case "harden":
		err = cmdHarden(args)
	case "versus":
		err = cmdVersus(args)
	case "simulate":
		err = cmdSimulate(args)
	case "evaluate":
		err = cmdEvaluate(args)
	case "serve":
		err = cmdServe(args)
	case "gate":
		err = cmdGate(args)
	case "alloc":
		err = cmdAlloc(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2eperf %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: e2eperf <train|attack|compare|sensitivity|corpus|harden|versus|simulate|evaluate|serve|gate|alloc> [flags]
run "e2eperf <subcommand> -h" for flags`)
	os.Exit(2)
}

// commonFlags wires the shared setup flags into a FlagSet.
type commonFlags struct {
	fs       *flag.FlagSet
	variant  *string
	topology *string
	hidden   *string
	quick    *bool
	seed     *uint64
	verbose  *bool
	weights  *string
	setup    *string
	timeout  *time.Duration
	metrics  *string
	pprofTo  *string

	// reg is the telemetry registry, created lazily by registry() when
	// -metrics was given.
	reg *obs.Registry
}

func newCommon(name string) *commonFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return &commonFlags{
		fs:       fs,
		variant:  fs.String("variant", "curr", "dote variant: hist or curr"),
		topology: fs.String("topology", "", "network topology: abilene (default), b4, geant, or triangle"),
		hidden:   fs.String("hidden", "", "comma-separated DNN hidden widths (default per -quick)"),
		quick:    fs.Bool("quick", false, "scaled-down configuration"),
		seed:     fs.Uint64("seed", 1, "experiment seed"),
		verbose:  fs.Bool("v", false, "progress output"),
		weights:  fs.String("weights", "", "model weights file (load if present for attack/..., save for train)"),
		setup:    fs.String("setup", "", "setup checkpoint: load if the file exists (skips training), create it otherwise"),
		timeout:  fs.Duration("timeout", 0, "wall-clock budget per gradient search; on expiry the best-so-far result is reported (0 = unlimited)"),
		metrics:  fs.String("metrics", "", `dump telemetry to stderr at exit: "text", "json" or "prom" (default off; off means zero instrumentation overhead)`),
		pprofTo:  fs.String("pprof", "", "write a CPU profile of the whole run to this file"),
	}
}

// registry returns the run's telemetry registry, or nil when -metrics was
// not given — the nil flows through every Obs field and keeps the hot paths
// on their uninstrumented branches.
func (c *commonFlags) registry() *obs.Registry {
	if *c.metrics == "" {
		return nil
	}
	if c.reg == nil {
		c.reg = obs.NewRegistry()
	}
	return c.reg
}

// dumpMetrics writes the registry snapshot to stderr in the -metrics format.
// Safe to defer unconditionally: without -metrics there is no registry and
// nothing is printed.
func (c *commonFlags) dumpMetrics() {
	if c.reg == nil {
		return
	}
	// Same snapshot-and-render path as the daemon's /metrics endpoint and
	// per-job flushes (obs.Snapshot.Write), so every dump format agrees.
	if err := c.reg.Snapshot().Write(os.Stderr, *c.metrics); err != nil {
		fmt.Fprintf(os.Stderr, "# metrics dump failed: %v\n", err)
	}
}

// startPprof begins CPU profiling when -pprof was given. The returned stop
// function is safe to defer unconditionally.
func (c *commonFlags) startPprof() (func(), error) {
	if *c.pprofTo == "" {
		return func() {}, nil
	}
	f, err := os.Create(*c.pprofTo)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	path := *c.pprofTo
	return func() {
		pprof.StopCPUProfile()
		f.Close()
		fmt.Fprintf(os.Stderr, "# cpu profile written to %s\n", path)
	}, nil
}

// instrument starts the CPU profile and returns a stop function that ends
// the profile and dumps the metrics registry; call it right after flag
// parsing and defer the returned function.
func (c *commonFlags) instrument() (func(), error) {
	switch *c.metrics {
	case "", "text", "json", "prom", "prometheus":
	default:
		return nil, fmt.Errorf("-metrics=%q: want text, json, or prom", *c.metrics)
	}
	stopProf, err := c.startPprof()
	if err != nil {
		return nil, err
	}
	return func() {
		stopProf()
		c.dumpMetrics()
	}, nil
}

// parseWidths parses a comma-separated list of positive layer widths.
func parseWidths(s string) ([]int, error) {
	var widths []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := strconv.Atoi(part)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("%q: want comma-separated positive widths", s)
		}
		widths = append(widths, w)
	}
	if len(widths) == 0 {
		return nil, fmt.Errorf("%q: no widths", s)
	}
	return widths, nil
}

// searchCtx returns the context a gradient search runs under: Background
// when no -timeout was given, a deadline-bearing child otherwise. The
// deadline propagates all the way down to the LP solves, so an expiring
// search still returns a well-formed best-so-far result.
func (c *commonFlags) searchCtx() (context.Context, context.CancelFunc) {
	if *c.timeout > 0 {
		return context.WithTimeout(context.Background(), *c.timeout)
	}
	return context.Background(), func() {}
}

// reportStop prints why a search stopped when the reason is worth the
// operator's attention (deadline, cancellation, contained faults).
func reportStop(res *core.SearchResult) {
	switch res.StopReason {
	case core.StopDeadline:
		fmt.Println("search stopped at -timeout; result above is best-so-far")
	case core.StopCancelled:
		fmt.Println("search cancelled; result above is best-so-far")
	case core.StopFaulted:
		fmt.Println("search stopped: every restart faulted")
	}
	if res.FaultCount > 0 {
		fmt.Printf("%d restart fault(s) contained and retired:\n", res.FaultCount)
		for _, f := range res.Faults {
			fmt.Printf("  %v\n", f)
		}
	}
}

func (c *commonFlags) setupFromCheckpoint() (*experiments.Setup, bool, error) {
	if *c.setup == "" {
		return nil, false, nil
	}
	f, err := os.Open(*c.setup)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	defer f.Close()
	s, err := experiments.LoadSetup(f)
	if err != nil {
		// An existing-but-unreadable checkpoint is an error, not a cue to
		// retrain: falling through would overwrite the file the user asked
		// us to load.
		return nil, false, fmt.Errorf("unreadable checkpoint %s: %w", *c.setup, err)
	}
	fmt.Fprintf(os.Stderr, "# loaded setup checkpoint %s (training skipped)\n", *c.setup)
	return s, true, nil
}

func (c *commonFlags) setupFn() (*experiments.Setup, error) {
	s, ok, err := c.setupFromCheckpoint()
	if err != nil {
		return nil, err
	}
	if ok {
		return s, nil
	}
	v := dote.Curr
	if *c.variant == "hist" {
		v = dote.Hist
	} else if *c.variant != "curr" {
		return nil, fmt.Errorf("unknown variant %q", *c.variant)
	}
	opts := experiments.DefaultSetup(v)
	if *c.quick {
		opts = experiments.QuickSetup(v)
	}
	if *c.topology != "" {
		opts.Topology = *c.topology
	}
	if *c.hidden != "" {
		widths, err := parseWidths(*c.hidden)
		if err != nil {
			return nil, fmt.Errorf("-hidden: %w", err)
		}
		opts.Hidden = widths
	}
	opts.Seed = *c.seed
	opts.Obs = c.registry()
	if *c.verbose {
		opts.Verbose = func(s string) { fmt.Fprintln(os.Stderr, "# "+s) }
	}
	s, err = experiments.Prepare(opts)
	if err != nil {
		return nil, err
	}
	if *c.setup != "" {
		f, err := os.Create(*c.setup)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := experiments.SaveSetup(f, s); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "# setup checkpoint written to %s\n", *c.setup)
	}
	// If a weights file exists, it overrides the freshly trained weights so
	// attacks hit exactly the trained model from a prior `train` run.
	if *c.weights != "" {
		if f, err := os.Open(*c.weights); err == nil {
			defer f.Close()
			if err := nn.LoadParams(f, s.Model.Net); err != nil {
				return nil, fmt.Errorf("loading %s: %w", *c.weights, err)
			}
			fmt.Fprintf(os.Stderr, "# loaded weights from %s\n", *c.weights)
		}
	}
	return s, nil
}

func cmdTrain(args []string) error {
	c := newCommon("train")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	stop, err := c.instrument()
	if err != nil {
		return err
	}
	defer stop()
	s, err := c.setupFn()
	if err != nil {
		return err
	}
	stats, err := dote.EvaluateObs(context.Background(), s.Model, s.TestEx, c.registry())
	if err != nil {
		return err
	}
	fmt.Printf("%s trained: test mean ratio %.3f, max %.3f, p95 %.3f (n=%d)\n",
		s.Model.Cfg.Variant, stats.MeanRatio, stats.MaxRatio, stats.P95Ratio, stats.N)
	if *c.weights != "" {
		f, err := os.Create(*c.weights)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := nn.SaveParams(f, s.Model.Net); err != nil {
			return err
		}
		fmt.Printf("weights saved to %s\n", *c.weights)
	}
	return nil
}

func cmdAttack(args []string) error {
	c := newCommon("attack")
	iters := c.fs.Int("iters", 400, "outer GDA iterations")
	restarts := c.fs.Int("restarts", 4, "random restarts")
	alphaD := c.fs.Float64("alpha-d", 0.01, "demand step size")
	alphaF := c.fs.Float64("alpha-f", 0.01, "split step size")
	alphaL := c.fs.Float64("alpha-l", 0.01, "multiplier step size")
	innerT := c.fs.Int("T", 1, "inner ascent steps")
	jsonOut := c.fs.String("json", "", "write the full result (including the adversarial input) to this file")
	opaque := c.fs.Bool("opaque", false, "attack the gray-box pipeline (fused routing+MLU stage, FD gradients) instead of the white-box chain-rule one")
	fdStep := c.fs.Float64("fd-step", 1e-4, "finite-difference probe step for -opaque")
	evalCacheSize := c.fs.Int("eval-cache", 0, "memoize true-ratio scoring in a cache of this many entries (0 = off)")
	evalCacheQuant := c.fs.Float64("eval-cache-quant", 0, "demand quantization step for -eval-cache keys (0 = 1e-9)")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	stop, err := c.instrument()
	if err != nil {
		return err
	}
	defer stop()
	s, err := c.setupFn()
	if err != nil {
		return err
	}
	if *opaque {
		s.Target.Pipeline = s.Model.OpaqueRoutingPipeline().Grayboxed(*fdStep)
	}
	cfg := core.DefaultGradientConfig()
	cfg.Iters = *iters
	cfg.Restarts = *restarts
	cfg.AlphaD, cfg.AlphaF, cfg.AlphaL = *alphaD, *alphaF, *alphaL
	cfg.T = *innerT
	cfg.Seed = *c.seed + 400
	cfg.Obs = c.registry()
	if *evalCacheSize > 0 {
		cfg.EvalCache = core.NewEvalCache(*evalCacheSize, *evalCacheQuant)
	}
	ctx, cancel := c.searchCtx()
	defer cancel()
	res, err := core.GradientSearchContext(ctx, s.Target, cfg)
	if err != nil {
		return err
	}
	fmt.Println(res)
	reportStop(res)
	if res.Found {
		d := s.Target.Demand(res.BestX)
		nz := 0
		for _, v := range d {
			if v > 0.01*s.Target.MaxDemand {
				nz++
			}
		}
		fmt.Printf("adversarial demand: %d/%d pairs carry >1%% of avg capacity (Figure 5 shape)\n",
			nz, len(d))
		exp, err := s.Model.Explain(res.BestX)
		if err != nil {
			return err
		}
		fmt.Print(exp)
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

func cmdCompare(args []string) error {
	c := newCommon("compare")
	randomEvals := c.fs.Int("random-evals", 400, "random-search evaluation budget")
	wbTime := c.fs.Duration("whitebox-time", 60*time.Second, "white-box time budget")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	stop, err := c.instrument()
	if err != nil {
		return err
	}
	defer stop()
	s, err := c.setupFn()
	if err != nil {
		return err
	}
	budgets := experiments.DefaultBudgets()
	budgets.RandomEvals = *randomEvals
	budgets.WhiteboxTime = *wbTime
	budgets.Gradient.Obs = c.registry()
	if *c.quick {
		budgets.WhiteboxNodes = 30
		budgets.Gradient.Iters = 150
		budgets.Gradient.Restarts = 2
	}
	rows, err := experiments.RunComparison(s, budgets)
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %-18s %-12s %s\n", "Method", "Discovered ratio", "Runtime", "Notes")
	for _, r := range rows {
		rt := "-"
		if r.Runtime > 0 {
			rt = r.Runtime.Round(time.Millisecond).String()
		}
		note := r.Note
		if r.Telemetry != "" {
			note += " [" + r.Telemetry + "]"
		}
		fmt.Printf("%-28s %-18s %-12s %s\n", r.Method, r.FormatRatio(), rt, note)
	}
	return nil
}

func cmdSensitivity(args []string) error {
	c := newCommon("sensitivity")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	stop, err := c.instrument()
	if err != nil {
		return err
	}
	defer stop()
	s, err := c.setupFn()
	if err != nil {
		return err
	}
	base := core.DefaultGradientConfig()
	base.Obs = c.registry()
	if *c.quick {
		base.Iters = 150
		base.Restarts = 2
	}
	rows, err := experiments.RunSensitivity(s, []float64{0.01, 0.005, 0.05}, base)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-16s %s\n", "alpha_L", "ratio", "runtime")
	for _, r := range rows {
		fmt.Printf("%-10g %-16.2f %v\n", r.AlphaL, r.Ratio, r.Runtime.Round(time.Millisecond))
	}
	return nil
}

func cmdCorpus(args []string) error {
	c := newCommon("corpus")
	epochs := c.fs.Int("epochs", 80, "GAN training epochs")
	size := c.fs.Int("size", 64, "corpus size")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	stop, err := c.instrument()
	if err != nil {
		return err
	}
	defer stop()
	s, err := c.setupFn()
	if err != nil {
		return err
	}
	if reg := c.registry(); reg != nil {
		s.Target.Pipeline.Instrument(reg)
		defer s.Target.Pipeline.Instrument(nil)
	}
	real := make([][]float64, 0, len(s.TrainEx))
	for _, ex := range s.TrainEx {
		real = append(real, s.Model.JoinInput(ex.History, ex.Next))
	}
	cfg := gan.DefaultConfig()
	cfg.Epochs = *epochs
	cfg.CorpusSize = *size
	cfg.Seed = *c.seed
	corpus, err := gan.Train(s.Target, real, cfg)
	if err != nil {
		return err
	}
	_, best := corpus.Best()
	fmt.Printf("corpus of %d inputs: mean ratio %.2f, p90 %.2f, best %.2f\n",
		len(corpus.Inputs), corpus.MeanRatio(), corpus.P90Ratio(), best)
	return nil
}

func cmdHarden(args []string) error {
	c := newCommon("harden")
	advCount := c.fs.Int("adv", 3, "number of adversarial inputs to mine")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	stop, err := c.instrument()
	if err != nil {
		return err
	}
	defer stop()
	s, err := c.setupFn()
	if err != nil {
		return err
	}
	// Mine adversarial inputs with independent seeds.
	var inputs [][]float64
	for i := 0; i < *advCount; i++ {
		cfg := core.DefaultGradientConfig()
		if *c.quick {
			cfg.Iters = 150
			cfg.Restarts = 2
		}
		cfg.Seed = *c.seed + uint64(1000+i)
		cfg.Obs = c.registry()
		ctx, cancel := c.searchCtx()
		res, err := core.GradientSearchContext(ctx, s.Target, cfg)
		cancel()
		if err != nil {
			return err
		}
		if res.Found {
			inputs = append(inputs, res.BestX)
		}
		if res.StopReason == core.StopDeadline {
			fmt.Fprintf(os.Stderr, "# adversarial mining run %d hit -timeout; using its best-so-far\n", i)
		}
	}
	if len(inputs) == 0 {
		// Fall back to random search so hardening has something to chew on.
		res, err := search.Random(s.Target, search.Budget{MaxEvals: 200}, *c.seed)
		if err != nil {
			return err
		}
		if res.Found {
			inputs = append(inputs, res.BestX)
		}
	}
	topts := dote.DefaultTrainOptions()
	if *c.quick {
		topts.Epochs = 10
	}
	topts.Obs = c.registry()
	out, err := robust.Harden(s.Model, s.TrainEx, s.TestEx, inputs, 10, topts)
	if err != nil {
		return err
	}
	fmt.Printf("adversarial worst ratio: %.2f -> %.2f\n", out.BeforeAdv, out.AfterAdv)
	fmt.Printf("test mean ratio:         %.3f -> %.3f\n", out.BeforeTest.MeanRatio, out.AfterTest.MeanRatio)
	return nil
}

// cmdEvaluate scores a trained model on externally supplied traffic
// matrices (the text format of cmd/tegen and traffic.WriteSequence) — the
// entry point for evaluating against REAL traces when available.
func cmdEvaluate(args []string) error {
	c := newCommon("evaluate")
	tmsPath := c.fs.String("tms", "", "traffic matrix file (required; one epoch per line)")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if *tmsPath == "" {
		return fmt.Errorf("-tms is required")
	}
	stop, err := c.instrument()
	if err != nil {
		return err
	}
	defer stop()
	s, err := c.setupFn()
	if err != nil {
		return err
	}
	f, err := os.Open(*tmsPath)
	if err != nil {
		return err
	}
	defer f.Close()
	seq, err := traffic.ParseSequence(f, s.Model.NumPairs())
	if err != nil {
		return err
	}
	var ex []traffic.Example
	if s.Model.Cfg.Variant == dote.Curr {
		ex = traffic.CurrWindows(seq)
	} else {
		if len(seq) <= s.Model.Cfg.HistLen {
			return fmt.Errorf("need more than %d epochs for %s", s.Model.Cfg.HistLen, s.Model.Cfg.Variant)
		}
		ex = traffic.Windows(seq, s.Model.Cfg.HistLen)
	}
	stats, err := dote.EvaluateObs(context.Background(), s.Model, ex, c.registry())
	if err != nil {
		return err
	}
	fmt.Printf("%s on %d supplied epochs: mean ratio %.3f, p95 %.3f, max %.3f\n",
		s.Model.Cfg.Variant, stats.N, stats.MeanRatio, stats.P95Ratio, stats.MaxRatio)
	return nil
}

// cmdSimulate replays a previously saved attack result (-result file from
// `attack -json`) through the fluid simulator: a stretch of normal traffic
// with the adversarial demand injected mid-sequence, comparing the learned
// policy against the oracle on congestion, loss and delay.
func cmdSimulate(args []string) error {
	c := newCommon("simulate")
	resultPath := c.fs.String("result", "", "JSON result from `attack -json` (required)")
	epochs := c.fs.Int("epochs", 12, "length of the simulated sequence")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if *resultPath == "" {
		return fmt.Errorf("-result is required")
	}
	stop, err := c.instrument()
	if err != nil {
		return err
	}
	defer stop()
	f, err := os.Open(*resultPath)
	if err != nil {
		return err
	}
	defer f.Close()
	res, err := core.ReadResultJSON(f)
	if err != nil {
		return err
	}
	if !res.Found || len(res.BestX) == 0 {
		return fmt.Errorf("result contains no adversarial input")
	}
	s, err := c.setupFn()
	if err != nil {
		return err
	}
	if len(res.BestX) != s.Target.InputDim {
		return fmt.Errorf("result input dim %d does not match the %s setup (%d); pass the same -variant/-quick flags used for the attack",
			len(res.BestX), s.Model.Cfg.Variant, s.Target.InputDim)
	}
	day := traffic.Sequence(traffic.NewGravity(s.PS, 0.3, rng.New(*c.seed+42)), *epochs)
	day[*epochs/2] = s.Target.Demand(res.BestX)

	model := s.Model
	dotePolicy := sim.HistoryPolicy(model.Cfg.Variant.String(), model.Cfg.HistLen,
		model.NumPairs(), model.Cfg.Variant == dote.Curr, model.Splits)
	reports, err := sim.Compare(s.PS, []sim.Policy{dotePolicy, &sim.OraclePolicy{PS: s.PS}}, day)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %-10s %-12s %s\n", "policy", "max MLU", "loss frac", "mean delay")
	for _, r := range reports {
		if err := r.Sanity(); err != nil {
			return err
		}
		fmt.Printf("%-16s %-10.2f %-12.4f %.2f\n", r.Policy, r.MaxMLU(), r.TotalLossFraction(), r.MeanDelay())
	}
	return nil
}

// cmdVersus compares DOTE-Hist against a Teal-like DOTE-Curr (§6,
// "Comparing to other learning-enabled systems"): the search maximizes
// MLU_Hist(d) / MLU_Curr(d) over joint inputs.
func cmdVersus(args []string) error {
	c := newCommon("versus")
	iters := c.fs.Int("iters", 300, "outer GDA iterations")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	stop, err := c.instrument()
	if err != nil {
		return err
	}
	defer stop()
	*c.variant = "hist"
	s, err := c.setupFn()
	if err != nil {
		return err
	}
	// Train the Teal-like comparator on the same traffic.
	optsB := experiments.DefaultSetup(dote.Curr)
	if *c.quick {
		optsB = experiments.QuickSetup(dote.Curr)
	}
	optsB.Seed = *c.seed
	sb, err := experiments.Prepare(optsB)
	if err != nil {
		return err
	}
	// Adapt the Curr pipeline to the Hist input layout: it consumes only
	// the demand slice.
	adapter := &core.SliceComponent{From: s.Model.HistoryDim(), To: s.Model.InputDim()}
	currOnHistLayout := sb.Model.Pipeline().PrependStage(adapter)

	rt := core.NewRelativeTarget(s.Model.Pipeline(), currOnHistLayout, s.Target)
	cfg := core.DefaultGradientConfig()
	cfg.Iters = *iters
	cfg.Seed = *c.seed + 600
	cfg.Obs = c.registry()
	res, err := core.RelativeGradientSearch(rt, cfg)
	if err != nil {
		return err
	}
	if !res.Found {
		fmt.Println("no input found where DOTE-Hist is worse than the Teal-like baseline")
		return nil
	}
	fmt.Printf("found input where DOTE-Hist's MLU is %.2fx the Teal-like model's\n", res.BestRatio)
	fmt.Printf("  MLU(Hist) = %.3f, MLU(Curr) = %.3f, time to best %v\n",
		res.BestSysMLU, res.BestOptMLU, res.TimeToBest.Round(time.Millisecond))
	return nil
}
