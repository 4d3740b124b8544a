GO ?= go

.PHONY: check test bench bench-layers audit-torture deploy-cover vet build fmt loc

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

deploy-cover: ## per-package statement coverage of every command, example and bench workload run; fails unless the internal/ functions none of them enters are exactly scripts/unreached.txt (under a minute; part of check)
	sh scripts/deploycover.sh

loc: ## non-blank, non-comment lines of non-test Go code, per package directory and repo-wide
	sh scripts/loc.sh

bench:
	$(GO) test -bench=. -benchmem .

bench-layers: ## the six layer drives: solver at 100k x 5k and on 6,000 replicated groups x 300 buckets, a first placement of 3k and 30k shards x 2 replicas over 120 servers, kernel at 1k and 10k pending timers, discovery publish at 10k..1M entries, one routed request, one orchestrator move and one fresh allocation at 3k and 30k shards, one load collection at 4k and 40k replicas
	$(GO) test ./internal/solver -run '^$$' -bench 'SolveScale|SolveReplicated|MoveDelta' -benchmem
	$(GO) test ./internal/allocator -run '^$$' -bench RunFirstPlacement -benchmem
	$(GO) test ./internal/sim -run '^$$' -bench LoopScheduleAndRun -benchmem
	$(GO) test ./internal/discovery -run '^$$' -bench Publish -benchmem
	$(GO) test ./internal/routing -run '^$$' -bench ClientRequestRoundTrip -benchmem
	$(GO) test ./internal/orchestrator -run '^$$' -bench 'MoveAndPublish|AllocateIncremental|CollectLoads'

audit-torture: ## full 500-seed migration-torture sweep -> FOUNDBUGS_audit.json (fails on drift vs the committed log)
	$(GO) run ./cmd/smbench -fig torture -foundbugs-out FOUNDBUGS_audit.json
	git diff --exit-code -- FOUNDBUGS_audit.json || { \
		echo "audit-torture: FOUNDBUGS_audit.json drifted from the committed log (see diff above)"; exit 1; }
