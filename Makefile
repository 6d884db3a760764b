GO ?= go

.PHONY: build test race vet check check-nightly cover fuzz-smoke docs bench bench-diff paper serve

# COVER_FLOOR is the minimum acceptable total statement coverage, in
# percent. The suite currently sits well above this; the floor exists to
# catch a PR that lands a subsystem without tests, not to chase decimals.
COVER_FLOOR ?= 70.0

# Per-package floors for the packages that own the byte format — the
# column codecs and the store that frames them — and for the serving
# tiers: the daemon (87.8% after the subscription wall), the push hub
# (92.4%) and the cluster router (87.3% after its exact and approx paths
# merged). Each floor sits a few points under where the suite landed, to
# catch a path landing untested without chasing decimals.
CODEC_FLOOR     ?= 80.0
STORAGE_FLOOR   ?= 80.0
SERVE_FLOOR     ?= 80.0
CLUSTER_FLOOR   ?= 84.0
SUBSCRIBE_FLOOR ?= 85.0
SUMMARY_FLOOR   ?= 85.0
POINTPAT_FLOOR  ?= 80.0

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# cover runs the suite with statement coverage over all packages and fails
# if the total drops below COVER_FLOOR percent.
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./... ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{sub(/%/,"",$$NF); print $$NF}'); \
	awk -v t="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < floor+0) { printf "coverage %.1f%% is below the %.1f%% floor\n", t, floor; exit 1 } \
		printf "coverage %.1f%% >= %.1f%% floor\n", t, floor }'
	@$(GO) test -cover ./internal/codec ./internal/storage ./internal/serve ./internal/cluster ./internal/subscribe ./internal/summary ./internal/pointpat | \
	awk -v cf="$(CODEC_FLOOR)" -v sf="$(STORAGE_FLOOR)" -v vf="$(SERVE_FLOOR)" -v rf="$(CLUSTER_FLOOR)" -v bf="$(SUBSCRIBE_FLOOR)" -v mf="$(SUMMARY_FLOOR)" -v pf="$(POINTPAT_FLOOR)" ' \
		{ for (i = 1; i <= NF; i++) if ($$i ~ /%$$/) { sub(/%/, "", $$i); cov = $$i } \
		  floor = sf; \
		  if ($$2 ~ /codec$$/) floor = cf; \
		  else if ($$2 ~ /subscribe$$/) floor = bf; \
		  else if ($$2 ~ /summary$$/) floor = mf; \
		  else if ($$2 ~ /serve$$/) floor = vf; \
		  else if ($$2 ~ /cluster$$/) floor = rf; \
		  else if ($$2 ~ /pointpat$$/) floor = pf; \
		  if (cov+0 < floor+0) { printf "%s coverage %.1f%% is below its %.1f%% floor\n", $$2, cov, floor; bad = 1 } \
		  else printf "%s coverage %.1f%% >= %.1f%% floor\n", $$2, cov, floor } \
		END { exit bad }'

# docs fails if any package is missing a package comment — or carrying a
# trivial one (under 60 characters buys no godoc entry point worth
# having) — keeping the prose tour of every subsystem present (see
# ARCHITECTURE.md).
docs:
	@missing=$$($(GO) list -f '{{if lt (len .Doc) 60}}{{.ImportPath}} ({{len .Doc}} chars){{end}}' ./...); \
	if [ -n "$$missing" ]; then \
		echo "packages missing a non-trivial package comment (>= 60 chars):"; echo "$$missing"; exit 1; \
	fi; \
	echo "all packages have non-trivial package comments"

# fuzz-smoke runs each byte-format fuzzer for a short bounded burst, so
# the pre-merge gate gets real randomized coverage of the column codecs,
# the v3 block reader, the block footer decoder every v3 read runs, the
# records' JSON wire form, the float writer's grid and strconv
# paths, and the sub-reply frame parser the router runs on shard replies,
# on top of the committed corpora (which the plain test run already
# replays as regression inputs). Every
# fuzzer caps minimization of each new-coverage input at 1s: the storage
# fuzzers' kilobyte-sized file seeds otherwise spend the whole burst
# minimizing the first interesting input and fuzz almost nothing, and an
# uncapped minimization can eat any fuzzer's burst the same way.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzColumnCodecs$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/codec
	$(GO) test -run='^$$' -fuzz='^FuzzV3Block$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/storage
	$(GO) test -run='^$$' -fuzz='^FuzzBlockFooter$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/storage
	$(GO) test -run='^$$' -fuzz='^FuzzSubscriptionIndex$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/subscribe
	$(GO) test -run='^$$' -fuzz='^FuzzSummarySidecar$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/summary
	$(GO) test -run='^$$' -fuzz='^FuzzRecordJSON$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/stdata
	$(GO) test -run='^$$' -fuzz='^FuzzAppendFloat$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/jsonenc
	$(GO) test -run='^$$' -fuzz='^FuzzSubQueryFrame$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/serve

# check is the full pre-merge gate: vet, the docs gate, build, the
# race-enabled short suite (fast gate over every package — fuzz corpora,
# metamorphic suites, and the buffer-pool paths all run with the
# detector on; `make race` remains the full-length run), the coverage
# floors (total plus per-package for the byte-format packages), a
# bounded fuzz smoke per byte-format fuzzer, and three explicit
# end-to-end smokes: boot stserved on an ephemeral port with a generated
# dataset and run one query, drive stingest's full tail-append-compact
# loop in-process, and bring up a 2-shard fleet plus router on loopback
# and check a pruned query scatters to fewer shards than the map holds.
# The column decode benchmarks, the pinned-partition load and probe
# benchmarks (random-float and datagen.NYC stores), the record-encoding
# benchmarks, the sub-reply frame parse benchmark, the trajectory conversion
# benchmarks and the pruned-selection benchmarks run once each, so they
# cannot rot.
# Last, the benchmark module's own suite (benchmark/ is a separate Go
# module, so ./... above does not reach it): its smoke runs every workload
# small and verifies every reply, subscriber stream and ingest_live read
# against the brute-force oracle.
check:
	$(GO) vet ./...
	$(MAKE) docs
	$(GO) build ./...
	$(GO) test -race -short ./...
	$(MAKE) cover
	$(MAKE) fuzz-smoke
	$(GO) test -race -count=1 -run TestServedSmoke ./cmd/stserved
	$(GO) test -race -count=1 -run TestIngestSmoke ./cmd/stingest
	$(GO) test -race -count=1 -run TestClusterSmoke ./cmd/strouter
	$(GO) test -race -count=1 -run TestApproxBytesSmoke ./internal/stdata
	$(GO) test -run '^$$' -bench 'ColumnDecode|LoadBase|BaseProbe|RecordJSON|ServeQueryRecords|ParseSubQueryFrame|TrajToSpatialMap|TrajToRaster|SelectPruned' -benchtime=1x ./internal/codec ./internal/stdata ./internal/serve ./internal/convert ./internal/selection
	$(GO) test -race -count=1 -run TestPointPatSmoke ./internal/pointpat
	(cd benchmark && $(GO) test ./...)

# check-nightly is the long gate: the entire suite, full-length and
# uncached, under the race detector. It subsumes `make race` (which
# honors the test cache) and exists for a nightly cron rather than the
# pre-merge path — the subscription hub, the LSM compactor, and the
# cluster router all spin real goroutine fleets, so the full-length
# detector pass is where cross-package interleavings actually surface.
check-nightly:
	$(GO) test -race -count=1 -timeout 30m ./...

# bench runs the benchmark spine (benchmark/BENCHMARK.md): every workload,
# one process, one line per run appended to benchmark/out/runs.jsonl.
bench:
	bash benchmark/run.sh --workload all

# bench-diff compares two sets of spine runs, per workload x end-to-end
# metric: make bench-diff A=before.jsonl B=after.jsonl (run `make bench`
# first; it builds the binary this uses).
bench-diff:
	benchmark/out/stbenchmark -compare $(A) $(B)

# paper regenerates every table and figure of the paper's evaluation at the
# scale EXPERIMENTS.md reports (a few minutes).
paper:
	$(GO) run ./cmd/stbench -exp all -events 200000 -trajs 20000 -pois 100000 -windows 5

# serve boots the feature-serving daemon on a generated demo dataset.
serve:
	$(GO) run ./cmd/stserved -demo 100000
