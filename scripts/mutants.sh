#!/bin/sh
# The mutant catalogue (`make mutants`): each scripts/mutants/<name>.patch is a
# deliberate bug, a `git diff` against the tree, headed by what must catch it:
#
#   package: ./internal/solver
#   run: ^TestSomething$
#   run: ^TestSomethingElse$ ./internal/allocator
#   found-by: where the mutant was first killed
#
# A header names one or more `run:` lines, and each must kill the mutant on
# its own. A `run:` line tests the header's package, or the package it names
# after its pattern. The script copies the tree (the files git tracks or would add)
# under a temporary directory, applies each patch there in turn with `git
# apply`, checks that the mutant still compiles, runs `go test -run <run>
# <package>` once per `run:` line (a mutant that hangs is killed by the
# timeout) and takes the patch back out. It fails, naming the mutant, when a
# patch no longer applies (the code it breaks has changed: re-cut the patch and
# look at the mutant again), when a mutant does not compile (a broken patch
# proves nothing) or when one survives any of its runs (those tests pass).
set -eu
cd "$(dirname "$0")/.."
root="$(pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf - | tar -xf - -C "$work"
failed=""
for patch in scripts/mutants/*.patch; do
	name="$(basename "$patch" .patch)"
	pkg="$(sed -n 's/^package: //p' "$patch")"
	runs="$(sed -n 's/^run: //p' "$patch")"
	if [ -z "$pkg" ] || [ -z "$runs" ]; then
		echo "mutant $name: the header names no package or no run pattern" >&2
		failed="$failed $name"
		continue
	fi
	if ! (cd "$work" && git apply "$root/$patch"); then
		echo "mutant $name: the patch no longer applies" >&2
		failed="$failed $name"
		continue
	fi
	if ! (cd "$work" && go test -count=1 -run '^$' "$pkg" $(printf '%s\n' "$runs" | awk 'NF > 1 { print $2 }') >/dev/null); then
		echo "mutant $name: does not compile" >&2
		failed="$failed $name"
	else
		while read -r run runpkg; do
			runpkg="${runpkg:-$pkg}"
			if (cd "$work" && go test -count=1 -timeout 120s -run "$run" "$runpkg" >/dev/null 2>&1); then
				echo "mutant $name: survived go test -run '$run' $runpkg" >&2
				failed="$failed $name"
			else
				echo "mutant $name: killed by $run ($runpkg)"
			fi
		done <<EOF
$runs
EOF
	fi
	(cd "$work" && git apply -R "$root/$patch")
done
if [ -n "$failed" ]; then
	echo "mutants:$failed" >&2
	exit 1
fi
