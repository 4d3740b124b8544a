#!/bin/sh
# Code-line count ROADMAP items are judged by: non-blank lines that are not
# whole-line // comments, in non-test .go files. Prints the eight directories
# an older numbering of item 4 named and their total (kept so the series since
# PR 16 stays comparable), then every package directory with non-test Go code
# — internal/allocator and internal/solver are where today's item 4, the
# incremental allocator, is measured — and the repo-wide total. Run via `make
# loc`.
set -eu
cd "$(dirname "$0")/.."

count() {
	find "$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat |
		grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//' || true
}

dirs="internal/sim internal/discovery internal/routing internal/orchestrator
internal/appserver internal/metrics internal/experiments cmd/smbench"
for d in $dirs; do
	printf '%6d  %s\n' "$(count "$d")" "$d"
done
printf '%6d  total (item 4 directories, PR 16 numbering)\n' "$(count $dirs)"
echo
for d in $(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' | sed 's|/[^/]*$||; s|^\./||' | sort -u); do
	printf '%6d  %s\n' "$(count "$d" -maxdepth 1)" "$d"
done
printf '%6d  repo-wide non-test\n' "$(count .)"
