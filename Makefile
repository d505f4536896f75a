GO ?= go

.PHONY: build test race fmt-check loc lint fuzz bench bench-gate bench-layers oracle

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# gofmt must have nothing to say about any file of the tree.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Non-test Go lines by package and in total (fixtures under testdata/ are not
# the program): the size the north star counts. Advisory; nothing gates on it.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | xargs -0 wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		     END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# Run the custom analyzer suite over the tree: one invocation, all six
# analyzers (cmd/fqlint loads and type-checks the packages itself).
# DESIGN.md §10's seeded audit says why each stays.
lint:
	$(GO) run ./cmd/fqlint ./...

# One fuzz target per go test invocation, every one in the tree but the
# oracle's (make oracle runs it): the fusion SQL parser, the condition parser
# (a parsed condition prints as text that parses back to it), the condition
# parser against the SQL front end (FuzzSQLCondition: a condition and its
# qualified WHERE clause read alike), the bound condition kernel against
# Eval, the CSV loader, then the two ends of the wire transport (arbitrary
# bytes, item blocks among them, into the serve loop and into the client's
# Do/Stream), then the item block codec (arbitrary header counts and block
# bytes under the frame budget against a reference decoder), then the line
# codec (the hand reader against json.Unmarshal and the writer against
# json.Marshal, requests and responses), then the union kernel and the
# streaming merges against a map-and-sort reference, then the service's
# cache key (a request keyed by its texts unparsed keys as its parsed
# conditions do, and two condition lists key alike only if their texts are
# the same multiset). CI runs this target.
fuzz:
	$(GO) test -fuzz=FuzzParseFusion -fuzztime=30s -run='^$$' ./internal/sqlparse
	$(GO) test -fuzz=FuzzParse -fuzztime=20s -run='^$$' ./internal/cond
	$(GO) test -fuzz=FuzzSQLCondition -fuzztime=20s -run='^$$' ./internal/cond
	$(GO) test -fuzz=FuzzBoundMatchesEval -fuzztime=20s -run='^$$' ./internal/cond
	$(GO) test -fuzz=FuzzRead -fuzztime=20s -run='^$$' ./internal/csvio
	$(GO) test -fuzz=FuzzServerFrame -fuzztime=20s -run='^$$' ./internal/wire
	$(GO) test -fuzz=FuzzClientFrame -fuzztime=20s -run='^$$' ./internal/wire
	$(GO) test -fuzz=FuzzFrameCodec -fuzztime=20s -run='^$$' ./internal/wire
	$(GO) test -fuzz=FuzzFrameLine -fuzztime=20s -run='^$$' ./internal/wire
	$(GO) test -fuzz=FuzzSetAlgebra -fuzztime=20s -run='^$$' ./internal/set
	$(GO) test -fuzz=FuzzQueryKey -fuzztime=20s -run='^$$' ./internal/service

# Differential oracle: the selftest (an injected corruption must be caught),
# a 60s soak of random universes against the naive reference executor, 30s
# of the same under the race detector, the churn soak under it, each writing
# a shrunk repro artifact on failure and its flight-recorder tail, and a fuzz
# smoke over the generator's seed space. The race leg is also the service's
# soak: its fqd phase serves every plan-cache instance from a real fqd over
# loopback TCP to concurrent clients, the whole stack under the race
# detector. CI runs this target and archives oracle-out/.
oracle:
	mkdir -p oracle-out
	$(GO) run ./cmd/fqoracle -selftest -seed 1
	$(GO) run ./cmd/fqoracle -duration 60s -seed 1 -repro oracle-out/repro.json -flight oracle-out/flight.json
	$(GO) run -race ./cmd/fqoracle -duration 30s -seed 1 -repro oracle-out/repro-race.json -flight oracle-out/flight-race.json
	$(GO) run -race ./cmd/fqoracle -churn -duration 60s -seed 1 -repro oracle-out/repro-churn.json -flight oracle-out/flight-churn.json
	$(GO) test -race -fuzz=FuzzOracle -fuzztime=30s -run='^$$' ./internal/oracle

# The repository benchmark: five workloads through a real service over
# loopback, every reply verified, yardstick-normalised (benchmark/README.md).
bench:
	$(GO) run ./benchmark

# The exact-count gate: cold-distinct, plan-reuse, answer-hot and
# remote-stream at the seed and length BENCH_exact.json stamps (seed 1,
# --seconds 2), through benchmark/run.sh. Traffic counts must match exactly,
# sim_cost_ms_per_query to 6 significant figures, except remote-stream's
# three, whose hedges follow the wall clock: within 0.5 % (benchgate's
# wallClockBound); remote-stream runs three times, and its medians are
# what is gated and stamped (benchgate's wallClockRuns). allocs_per_query
# within 2 % and alloc_kb_per_query within 10 % on a runtime like the
# stamp's (advisory on any other, such as a CI runner with more
# processors). `go run ./cmd/benchgate -spread N` prints each gated
# metric's min, median and max over N runs of the tree, gating nothing. A
# change that moves a count on purpose reruns `go run ./cmd/benchgate
# -write` and commits the file. A stamp's commit is the HEAD -write ran on,
# the parent of the commit that carries the rewritten file. CI runs this
# target.
bench-gate:
	$(GO) run ./cmd/benchgate

# Layer micro-benchmarks behind the end-to-end benchmark's numbers: the
# wrapper's selection (every node kind, one relation and six in turn) and
# load, both also over a KV and an OEM backend holding the row store's
# tuples (the place to compare the three backends), the wrapper's semijoin
# (10^2 and 10^4 items), one selection bare and under the source
# layers (fault + accounting, the fabric), a batch's exchange accounting from
# the run's ledger at two log lengths, one plan under each scheduler (par,
# stream), the k-way union and intersection (strided inputs, and six drawn as
# a plan-reuse round's are) and the streaming union and intersection on the
# same inputs, one planning call with the statistics catalog warm, each
# optimizer at three problem sizes, the static
# cost estimator on an SJA+ plan, and one wire frame through the codec in each
# direction at a chunk's and an answer's size and at answer-hot's cached
# answer, as an item block (written item by item and from its encoding) and
# as a v1 peer's JSON line, and the two caches: a hit on a full answer
# cache, and the store they share, Put at its bound. CI runs this target
# once per benchmark as a smoke: make bench-layers BENCHFLAGS='-benchtime 1x'.
BENCHFLAGS ?=
bench-layers:
	$(GO) test -run '^$$' -bench 'WrapperSelect|WrapperSemijoin|WrapperLoad|LayeredSelect|BatchAccounting|RunModes|UnionAll|IntersectAll|MergeUnionStream|MergeIntersectStream|Problem|Optimizers|PlanEstimate|FrameCodec|AnswerCacheGet|StorePutAtBound' -benchmem $(BENCHFLAGS) \
		./internal/source ./internal/fabric ./internal/exec ./internal/set ./internal/core ./internal/optimizer ./internal/plan ./internal/wire ./internal/service ./internal/lru
