GO ?= go

.PHONY: check test bench bench-layers audit-torture deploy-cover mutants vet build fmt loc

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

mutants: ## every scripts/mutants/<name>.patch applied to a copy of the tree must fail the tests its header names (seconds; part of check)
	sh scripts/mutants.sh

loc: ## non-blank, non-comment lines of non-test Go code, per package directory and repo-wide
	sh scripts/loc.sh

bench:
	$(GO) test -bench=. -benchmem .

bench-layers: ## the seven layer drives: solver at 100k x 5k and on 6,000 replicated groups x 300 buckets, a first placement of 3k and 30k shards x 2 replicas over 120 servers, kernel at 1k and 10k pending timers and in steady_serving's self-rescheduling request/reply traffic (steady, ns/event), discovery publish at 10k..1M entries, one keyspace lookup of a random key at 3k and 100k shards, one routed request in a two-shard world and in steady_serving's 3k-shard x 120-server world (world=3k-shards-120-servers), one orchestrator move at 3k and 30k shards, one fresh allocation of the kept problem at 3k, 30k and 300k shards (evals/op on every row) and on lb_churn's problem with its loads redrawn, one load collection at 4k and 40k replicas
	$(GO) test ./internal/solver -run '^$$' -bench 'SolveScale|SolveReplicated|MoveDelta' -benchmem
	$(GO) test ./internal/allocator -run '^$$' -bench RunFirstPlacement -benchmem
	$(GO) test ./internal/sim -run '^$$' -bench LoopScheduleAndRun -benchmem
	$(GO) test ./internal/discovery -run '^$$' -bench Publish -benchmem
	$(GO) test ./internal/shard -run '^$$' -bench KeyspaceLocate -benchmem
	$(GO) test ./internal/routing -run '^$$' -bench ClientRequestRoundTrip -benchmem
	$(GO) test ./internal/orchestrator -run '^$$' -bench 'MoveAndPublish|AllocateIncremental|CollectLoads'

audit-torture: ## both 500-seed migration-torture sweeps, seeds 1-500 -> FOUNDBUGS_audit.json and 501-1000 -> FOUNDBUGS_audit_501.json (fails on drift vs the committed logs)
	$(GO) run ./cmd/smbench -fig torture -foundbugs-out FOUNDBUGS_audit.json
	$(GO) run ./cmd/smbench -fig torture -torture-start 501 -torture-seeds 500 -foundbugs-out FOUNDBUGS_audit_501.json
	git diff --exit-code -- FOUNDBUGS_audit.json FOUNDBUGS_audit_501.json || { \
		echo "audit-torture: a found-bug log drifted from the committed one (see diff above)"; exit 1; }
