#!/bin/sh
# Tier-1 verification: vet, build, and test (with the race detector) the
# whole module. Run via `make check` or directly.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
fmt_out="$(gofmt -l .)"
if [ -n "$fmt_out" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$fmt_out" >&2
	exit 1
fi
echo "== by-name lookups off the request path"
# From Client.Do to the reply a request resolves no name: routing holds cells,
# shard numbers, peers and slots, and the fabric's handle forms take region
# numbers and *Peer. A by-name call creeping back in is a hash per request.
byname="$(grep -nE '\.Replicas\(|\.Lookup\(|net\.Region\(|fleet\.Latency\(|\.Send\(' \
	$(ls internal/routing/*.go | grep -v _test.go) || true)"
fabric="$(awk '/^func \(n \*Network\) (SendTo|ReplyAt|delayAt|lost)\(|^func env(Deliver|Timeout|Reply)\(/ {body=1}
	body && /fleet\.Latency\(|RegionIndex\(|n\.Peer\(|\.peers\[/ {print FILENAME ":" FNR ": " $0}
	/^}/ {body=0}' internal/rpcnet/rpcnet.go)"
if [ -n "$byname$fabric" ]; then
	echo "by-name lookup on the request path:" >&2
	echo "$byname$fabric" >&2
	exit 1
fi
echo "== go vet ./..."
go vet ./...
echo "== go build ./..."
go build ./...
echo "== every internal package runs on a deployment"
# A package under internal/ with non-test Go files must be in the import
# closure of the commands and the benchmark: a model that no -fig, fault
# scenario or bench workload composes with the rest proves nothing about it
# (DESIGN §1). internal/integration holds only tests and lists no GoFiles.
closure="$(go list -deps ./cmd/... ./bench)"
unreached="$(go list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/... | grep -vxF "$closure" || true)"
if [ -n "$unreached" ]; then
	echo "internal packages outside the import closure of ./cmd/... and ./bench:" >&2
	echo "$unreached" >&2
	exit 1
fi
echo "== exported entry points have a caller"
# An exported func or method declared in a non-test file under internal/ must
# be named by some other line of non-test code (internal/, cmd/, examples/,
# bench/; comment lines, string literals — a panic message naming its own
# function — and its own declaration do not count). What is left is
# reached only from tests: it stays only as a driver or probe of behaviour
# other than its own, listed here with the reason; anything else goes with the
# tests that checked it. The match is by name only: a method that shares its
# name with another that has a caller passes unseen (healthmon's Observe did,
# beside Histogram.Observe and SuccessRatio.Observe), so check such names by
# hand.
keep="$(sed 's/ *#.*//' <<'KEEP' | sort
allocator.FormatMoves       # what recorded_test.go compares, row by row
cluster.Resize              # drives servers joining a running job (TestAutoscaleResizeAddsServersAndRebalances)
coord.WatchData             # ROADMAP item 5's standby watches the leader node with it
discovery.Cancel            # drives the store's reclamation behind the slowest cursor
discovery.FixedDelay        # pins propagation delay so tests can count events
orchestrator.ForceAllocate  # drives an allocation without waiting out AllocInterval
orchestrator.SetReplicas    # drives replica-count changes through the allocator's surplus drops (TestRunRecorded's "replica count down" row, TestSetReplicasGrowAndShrinkLive)
rpcnet.Delay                # probe of the latency model and injected link faults
rpcnet.Partitioned          # probe of the fault injector's link state
rpcnet.Reachable            # probe of endpoint registration and revert
sim.Perm                    # draws propertyWorld's inputs: recorded_test.go's rows are a function of its draw order
trace.FindSpans             # probe of span parentage in the experiment trace tests
KEEP
)"
nonTest="$(find internal cmd examples bench -name '*.go' ! -name '*_test.go' | sort)"
uncalled="$(for f in $(find internal -name '*.go' ! -name '*_test.go' | sort); do
	pkg="$(basename "$(dirname "$f")")"
	sed -nE 's/^func (\([^)]*\) )?([A-Z][A-Za-z0-9_]*)[(\[].*/\2/p' "$f" | sort -u | while read -r name; do
		grep -hw -- "$name" $nonTest |
			grep -vE "^func (\([^)]*\) )?$name[(\[]|^[[:space:]]*//" |
			sed -E 's/"([^"\\]|\\.)*"//g; s/`[^`]*`//g' |
			grep -qw -- "$name" || echo "$pkg.$name"
	done
done | sort)"
extra="$(echo "$uncalled" | grep -vxF "$keep" || true)"
stale="$(echo "$keep" | grep -vxF "$uncalled" || true)"
if [ -n "$extra$stale" ]; then
	echo "exported entry points no non-test code calls, not on the keep-list: $(echo $extra)" >&2
	echo "keep-list entries that have a caller now, or are gone: $(echo $stale)" >&2
	exit 1
fi
echo "== go test -race (all packages except sim-heavy experiments)"
# experiments is single-threaded discrete-event simulation and takes ~150s
# under the race detector for zero extra coverage; it runs un-instrumented
# below instead.
go test -race $(go list ./... | grep -v 'internal/experiments$')
echo "== go test ./internal/experiments"
go test ./internal/experiments
echo "== audit torture smoke (12 seeds, must be violation-free)"
go run ./cmd/smbench -fig torture -torture-seeds 12 -fail-on-bugs
echo "== layer-drive smokes (-benchtime=1x: compiled and run once, never timed against a committed number)"
go test ./internal/solver -run '^$' -bench . -benchtime=1x
go test ./internal/sim -run '^$' -bench LoopScheduleAndRun -benchtime=1x
go test ./internal/discovery -run '^$' -bench Publish -benchtime=1x
go test ./internal/routing -run '^$' -bench ClientRequestRoundTrip -benchmem -benchtime=1x
go test ./internal/orchestrator -run '^$' -bench 'MoveAndPublish|AllocateIncremental|CollectLoads' -benchtime=1x
echo "== profiler-overhead benchmark smoke (-benchtime=1x)"
go test . -run '^$' -bench ProfilerOverhead -benchtime=1x
echo "== code lines (scripts/loc.sh)"
sh scripts/loc.sh
echo "check: OK"
