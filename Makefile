# The vet target is the one CI runs (.github/workflows/ci.yml); keep the
# two command lines identical so contributors reproduce CI findings exactly.
# CI's sfvet step only adds -github, which changes the diagnostic *format*
# (::error workflow annotations), never the verdict.
#
# sfvet exit contract: 0 = clean, 1 = one or more diagnostics, 2 = usage or
# load error (bad flag, unparseable package). A //lint:allow directive that
# silences nothing is a diagnostic of its own (unusedallow), so this target
# and CI fail on it and the directive is removed. CI additionally
# gates on BenchmarkSfvetRepo (recorded 0.84 s for the nine-analyzer suite at
# GOMAXPROCS=2 and 0.95 s at 1, medians of nine runs on a 2-vCPU Xeon)
# staying under its 5 s ns/op budget so the suite stays fast enough to run
# on every push.

.PHONY: build test race vet bench-smoke bench-pin experiments-pin e2e loc deadexports

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./... && go run ./cmd/sfvet ./...

# Boots a 3-node localhost UDP cluster with the management API enabled and
# drives it over HTTP: health, views, /metrics, a /join introduction, a live
# /config reload, a bare-/leave drain, and SIGTERM teardown.
e2e:
	scripts/e2e.sh

# Builds and exercises the repository's benchmark (bench/, a module of its
# own that imports sendforget/internal/...) at smoke size, so a rename in
# internal/ that breaks it fails here and not in the acceptance pipeline.
bench-smoke:
	cd bench && go vet ./... && go test ./...
	bash bench/run.sh -all -smoke

# The byte-identity pin: the benchmark at a fixed round count is seeded, so
# its final state is one value per workload, and a change that claims to leave
# seeded runs untouched (a performance PR) must reproduce it. This list is the
# one place the digests are recorded — workload:rounds:state_digest, seed 1 —
# and .claude/skills/verify/SKILL.md points here. A PR that moves a digest on
# purpose edits the list and says why. Last moved: verdicts drawn per
# destination shard (each shard rules on its arrivals from its own stream).
BENCH_PINS = \
	sharded-pushpull-faults-50k:100:d9a39bd6d3a23ea4 \
	sharded-sf-100k:400:8bae8641cd94eafe
bench-pin:
	@for pin in $(BENCH_PINS); do \
		set -- $$(echo $$pin | tr : ' '); \
		got=$$(bash bench/run.sh -workload $$1 -rounds $$2 -seed 1 | awk '$$1 == "state_digest" { print $$2 }'); \
		if [ "$$got" != "$$3" ]; then \
			echo "bench-pin: $$1 -rounds $$2 -seed 1: state_digest '$$got', want $$3"; exit 1; \
		fi; \
		echo "bench-pin: $$1 -rounds $$2 -seed 1: state_digest $$got ok"; \
	done

# The same pin for the paper's experiments: every registered experiment is
# seeded, so the stdout of `sfexperiments -all` at the default engine is one
# value whatever -parallel or GOMAXPROCS is (progress timing goes to stderr).
# A PR that moves a report on purpose edits the digest and says why.
EXPERIMENTS_PIN = 83ec05e0f751e5fc37842e48cf86c287648ac9b740844c24b52ed98d7ce16eed
experiments-pin:
	@got=$$(go run ./cmd/sfexperiments -all 2>/dev/null | sha256sum | cut -d' ' -f1); \
	if [ "$$got" != "$(EXPERIMENTS_PIN)" ]; then \
		echo "experiments-pin: sfexperiments -all stdout sha256 $$got, want $(EXPERIMENTS_PIN)"; exit 1; \
	fi; \
	echo "experiments-pin: sfexperiments -all stdout sha256 $$got ok"

# Non-test Go lines outside bench/ and testdata/, for the whole repo and per
# top-level internal/ package: the figure CHANGES.md quotes when a PR reports
# a net line count.
LOC = find $(1) -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' -print0 | xargs -0 cat | wc -l
loc:
	@printf '%7d  total\n' $$($(call LOC,.))
	@for d in internal/*/; do printf '%7d  %s\n' $$($(call LOC,$$d)) $$d; done

# Exported functions and methods that nothing calls: each one declared
# outside bench/ and testdata/ whose name appears in no non-test code (bench/
# included) and in no other package's tests, comments not counted. It exits 1
# if it lists any, and has no allowlist: such a function moves into its
# package's tests or goes. The match is by name, so a dead function that
# shares its name with a live one is missed, but a function that any code
# names is never listed. (A method called only through an interface declared
# outside the module, such as fmt.Stringer, would be; none is today.)
deadexports:
	@go run ./scripts/deadexports
