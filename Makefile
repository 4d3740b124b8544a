GO ?= go

.PHONY: check test bench bench-solver bench-sim bench-controlplane audit-torture vet build fmt loc

check: ## gofmt + vet + build + race-enabled tests (tier-1 verify)
	sh scripts/check.sh

fmt:
	gofmt -w .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

loc: ## non-blank, non-comment lines of non-test Go code (the ROADMAP item 4 measure)
	sh scripts/loc.sh

bench:
	$(GO) test -bench=. -benchmem .

bench-solver: ## run the solver scale benchmarks and regenerate BENCH_solver.json
	$(GO) test ./internal/solver -run '^$$' -bench 'SolveScale|MoveDelta' -benchmem
	$(GO) run ./cmd/smbench -fig solverscale -bench-out BENCH_solver.json

bench-sim: ## run the kernel benchmarks and regenerate BENCH_sim.json
	$(GO) test . -run '^$$' -bench 'ProfilerOverhead|SimScale' -benchmem
	$(GO) run ./cmd/smbench -fig simscale -bench-sim-out BENCH_sim.json

bench-controlplane: ## run the 10M-shard control-plane benchmark and regenerate BENCH_controlplane.json
	$(GO) test ./internal/discovery -run '^$$' -bench 'Publish' -benchmem
	$(GO) run ./cmd/smbench -fig controlscale -bench-controlplane-out BENCH_controlplane.json

audit-torture: ## full 500-seed migration-torture sweep -> FOUNDBUGS_audit.json (fails on drift vs the committed log)
	$(GO) run ./cmd/smbench -fig torture -foundbugs-out FOUNDBUGS_audit.json
	git diff --exit-code -- FOUNDBUGS_audit.json || { \
		echo "audit-torture: FOUNDBUGS_audit.json drifted from the committed log (see diff above)"; exit 1; }
