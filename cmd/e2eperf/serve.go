package main

// The analyzer-as-a-service entry points:
//
//	serve  long-lived daemon — job queue over HTTP, work-stealing restart
//	       pool, NDJSON streaming, Prometheus /metrics
//	gate   CI killer app — POST a checkpoint, block until the adversarial
//	       ratio bound is computed, exit 2 when it exceeds the threshold
//
// gate speaks to a running daemon (-addr) or, without one, boots an
// in-process daemon on a loopback port for the single job — same code path
// either way, so CI scripts can start simple and move to a shared daemon
// without changing semantics.

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8473", "address to serve the job API on")
	workers := fs.Int("workers", 0, "work-stealing pool size shared by all jobs' restarts (0 = GOMAXPROCS)")
	jobs := fs.Int("jobs", 2, "jobs running concurrently (each additionally shards its restarts over the pool)")
	cacheEntries := fs.Int("cache-entries", 1<<16, "entries per shared per-checkpoint eval cache (negative disables sharing)")
	metrics := fs.String("metrics", "", `flush a telemetry snapshot to stderr after every job completes: "text", "json" or "prom" (the /metrics endpoint is always on)`)
	quiet := fs.Bool("q", false, "suppress per-job log lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *metrics {
	case "", "text", "json", "prom", "prometheus":
	default:
		return fmt.Errorf("-metrics=%q: want text, json, or prom", *metrics)
	}

	cfg := serve.Config{
		Workers:        *workers,
		JobConcurrency: *jobs,
		CacheEntries:   *cacheEntries,
	}
	if *metrics != "" {
		cfg.MetricsDump = os.Stderr
		cfg.MetricsFormat = *metrics
	}
	if !*quiet {
		cfg.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", a...)
		}
	}
	s := serve.New(cfg)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "# shutting down (running jobs report best-so-far)")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
	}()
	fmt.Printf("e2eperf daemon listening on http://%s (POST /jobs, GET /metrics)\n", ln.Addr())
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

func cmdGate(args []string) error {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon URL (e.g. http://127.0.0.1:8473); empty boots an in-process daemon for this one gate")
	setupPath := fs.String("setup", "", "trained setup checkpoint to gate (required)")
	threshold := fs.Float64("threshold", 0, "maximum acceptable adversarial ratio; exceeding it exits 2 (required)")
	iters := fs.Int("iters", 400, "outer GDA iterations")
	restarts := fs.Int("restarts", 4, "random restarts")
	seed := fs.Uint64("seed", 1, "experiment seed (the search derives seed+400, matching `attack`)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget; on expiry the gate judges the best-so-far bound (0 = unlimited)")
	opaque := fs.Bool("opaque", false, "gate the gray-box pipeline (fused routing+MLU, FD gradients)")
	fdStep := fs.Float64("fd-step", 1e-4, "finite-difference probe step for -opaque")
	label := fs.String("label", "gate", "job label echoed in daemon logs and events")
	jsonOut := fs.String("json", "", "write the full result JSON (adversarial input included) to this file")
	verbose := fs.Bool("v", false, "stream improvement events to stderr as they happen")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *setupPath == "" {
		return fmt.Errorf("-setup is required")
	}
	if *threshold <= 0 {
		return fmt.Errorf("-threshold must be positive")
	}
	ckpt, err := os.ReadFile(*setupPath)
	if err != nil {
		return err
	}

	spec := serve.JobSpec{
		Label:      *label,
		Checkpoint: ckpt,
		Threshold:  *threshold,
		Scenario: serve.Scenario{
			Opaque: *opaque,
			FDStep: *fdStep,
		},
		Budget: serve.Budget{
			Iters:    *iters,
			Restarts: *restarts,
			// Same derivation as `attack`, so a gate verdict is bitwise
			// reproducible by a one-shot attack with the same -seed.
			Seed: *seed + 400,
			// No memoization: the bound must come from fresh LP scoring,
			// independent of whatever other jobs populated shared caches.
			EvalCache: -1,
			TimeoutMS: timeout.Milliseconds(),
		},
	}

	client := &serve.Client{Base: *addr}
	if *addr == "" {
		s := serve.New(serve.Config{JobConcurrency: 1})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: s.Handler()}
		go func() { _ = hs.Serve(ln) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = hs.Shutdown(ctx)
			_ = s.Shutdown(ctx)
		}()
		client.Base = "http://" + ln.Addr().String()
	}

	out, err := client.Gate(context.Background(), spec, func(ev serve.Event) error {
		switch ev.Type {
		case "running":
			fmt.Fprintf(os.Stderr, "# gating %s\n", ev.Desc)
		case "improved":
			if *verbose {
				fmt.Fprintf(os.Stderr, "# improved: ratio %.4f at iter %d (+%dms)\n",
					ev.Ratio, ev.Iter, ev.ElapsedMS)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if out.StopReason != "" && out.StopReason != "converged" {
		fmt.Fprintf(os.Stderr, "# search stopped early: %s (bound is best-so-far)\n", out.StopReason)
	}
	if *jsonOut != "" && len(out.Job.Result) > 0 {
		if err := os.WriteFile(*jsonOut, out.Job.Result, 0o644); err != nil {
			return err
		}
		fmt.Printf("result written to %s\n", *jsonOut)
	}
	verdict := "PASS"
	if !out.Pass {
		verdict = "FAIL"
	}
	fmt.Printf("gate: adversarial ratio bound %.6g vs threshold %g — %s\n",
		out.Ratio, *threshold, verdict)
	if !out.Pass {
		os.Exit(2)
	}
	return nil
}
