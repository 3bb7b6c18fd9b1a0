# The vet target is the one CI runs (.github/workflows/ci.yml); keep the
# two command lines identical so contributors reproduce CI findings exactly.
# CI's sfvet step only adds -github, which changes the diagnostic *format*
# (::error workflow annotations), never the verdict.
#
# sfvet exit contract: 0 = clean, 1 = one or more diagnostics, 2 = usage or
# load error (bad flag, unparseable package). -unusedallow prints stale
# //lint:allow directives as warnings on stderr and never changes the exit
# code — a stale escape hatch is advice, not a failure. CI additionally
# gates on BenchmarkSfvetRepo staying under its ns/op budget so the suite
# stays fast enough to run on every push.

.PHONY: build test race vet bench-smoke e2e loc

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...
	go run ./cmd/sfvet -unusedallow ./...

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

# Non-test Go lines outside bench/ and testdata/, for the whole repo and per
# top-level internal/ package: the figure CHANGES.md quotes when a PR reports
# a net line count.
LOC = find $(1) -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' -print0 | xargs -0 cat | wc -l
loc:
	@printf '%7d  total\n' $$($(call LOC,.))
	@for d in internal/*/; do printf '%7d  %s\n' $$($(call LOC,$$d)) $$d; done
