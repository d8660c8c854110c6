GO ?= go

# Benchmark time per case for bench-json; CI uses 1x for a smoke snapshot,
# real measurement runs want something like 2s or 20x.
BENCHTIME ?= 2s
BENCHJSON_OUT ?= BENCH_json_local.json
# Optional committed baseline for a benchstat-style comparison table; the
# compare is informational and never fails the target.
BENCHJSON_BASELINE ?=
# Snapshot outputs default to untracked BENCH_*_local.json files so a plain
# `make bench-*` never overwrites a committed baseline.
# bench-lp snapshot output and the committed baseline it is compared against.
BENCHLP_OUT ?= BENCH_lp_local.json
BENCHLP_BASELINE ?= BENCH_PR6.json
# bench-milp snapshot output and its committed baseline.
BENCHMILP_OUT ?= BENCH_milp_local.json
BENCHMILP_BASELINE ?= BENCH_PR10.json

.PHONY: all build test vet race bench bench-json bench-lp bench-milp

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/ad/... ./internal/alloc/... ./internal/core/... ./internal/linalg/... ./internal/lp/... ./internal/milp/... ./internal/obs/... ./internal/serve/... ./internal/te/...

# Hot-path benchmarks of record: the end-to-end pipeline gradient and the
# optimal-MLU LP solve, with allocation counts.
bench:
	$(GO) test -run xxx -bench 'PipelineGrad|PipelineForward|OptimalMLULP' -benchmem .
	$(GO) test -run xxx -bench . -benchmem ./internal/lp/ ./internal/ad/

# bench-json archives the core benchmarks (one-row and multi-row gradient
# sweeps, the search under both restart groupings, and the Table 1 search
# with its "ratio" metric) as a machine-readable JSON snapshot in
# $(BENCHJSON_OUT); CI compares it against the committed BENCH_PR5.json.
bench-json:
	$(GO) test -run xxx -benchtime $(BENCHTIME) -benchmem \
		-bench 'BenchmarkPipelineGrad$$|BenchmarkPipelineBatchGrad|BenchmarkGradSearchEngines|BenchmarkTable1_DOTEHist|BenchmarkIncrementalFDGrad|BenchmarkEvalCacheMemo|BenchmarkAllocAttack' . \
		| $(GO) run ./cmd/benchjson -out $(BENCHJSON_OUT) $(if $(BENCHJSON_BASELINE),-compare $(BENCHJSON_BASELINE))

# bench-lp archives the sparse revised-simplex benchmarks — revised vs the
# dense test oracle on cold transport solves and on cold Abilene/GÉANT
# optimal-MLU solves (every production LP solve is cold; only the dense
# oracle also runs a warm sequence), and the 100-node Waxman acceptance
# point — then runs the -race leg over the revised paths (concurrent
# pooled-solver borrow plus live stats scraping).
bench-lp:
	{ $(GO) test -run xxx -benchtime $(BENCHTIME) -benchmem \
		-bench 'BenchmarkColdSolve|BenchmarkMLUEngines' ./internal/lp/ ; \
	  $(GO) test -run xxx -benchtime $(BENCHTIME) -benchmem \
		-bench 'BenchmarkWaxman100' ./internal/te/ ; } \
		| $(GO) run ./cmd/benchjson -out $(BENCHLP_OUT) $(if $(BENCHLP_BASELINE),-compare $(BENCHLP_BASELINE))
	$(GO) test -race -run 'Revised' ./internal/lp/ ./internal/te/

# bench-milp archives the branch-and-bound headline: packing node throughput
# of the engine, whose child nodes re-solve their bounds from the parent's
# saved basis while every other LP solve is cold, vs the cold-clone test
# oracle, the
# end-to-end alloc attack, and the serve.Pool searches/hour fleet number —
# then runs the -race leg over concurrent MILP solves sharing the solver
# and basis pools.
bench-milp:
	{ $(GO) test -run xxx -benchtime $(BENCHTIME) -benchmem \
		-bench 'BenchmarkPackingNodes' ./internal/milp/ ; \
	  $(GO) test -run xxx -benchtime 2x -benchmem \
		-bench 'BenchmarkAllocAttack' . ; \
	  $(GO) test -run xxx -benchtime $(BENCHTIME) -benchmem \
		-bench 'BenchmarkPoolThroughput' ./internal/serve/ ; } \
		| $(GO) run ./cmd/benchjson -out $(BENCHMILP_OUT) $(if $(BENCHMILP_BASELINE),-compare $(BENCHMILP_BASELINE))
	$(GO) test -race -count=1 -run 'Warm|TestConcurrentSolvesSharePools' ./internal/milp/
	$(GO) test -race -count=1 -run 'ResolveBounds|BasisSnapshot' ./internal/lp/
