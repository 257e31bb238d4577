#!/usr/bin/env bash
# Fails when a -run, -bench or -fuzz pattern in the CI workflow selects
# nothing. Every |-separated alternative of a pattern must name at least
# one test (or benchmark, or fuzz target) of the packages its command
# runs; otherwise deleting or renaming a test silently drops it out of
# the step that gates it. A -run on a command that also passes -bench is
# the "run no tests" idiom and is not checked.
#
#   bash .github/scripts/check-test-patterns.sh [workflow.yml]
set -euo pipefail
workflow=${1:-.github/workflows/ci.yml}

declare -A listed
# list sets names to the top-level test, benchmark, fuzz and example
# names of the packages given as arguments (cached per package list).
list() {
	local key="$*"
	if [[ -z ${listed[$key]+set} ]]; then
		listed[$key]=$(go test -list . "$@" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
	fi
	names=${listed[$key]}
}

status=0
while IFS= read -r line; do
	read -ra words <<<"${line//\'/}"
	run="" bench="" fuzz="" pkgs=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		w=${words[i]}
		case $w in
		'|' | '2>&1') break ;;
		-run) run=${words[++i]} ;;
		-bench) bench=${words[++i]} ;;
		-fuzz) fuzz=${words[++i]} ;;
		-skip | -benchtime | -count | -fuzztime) ((++i)) ;;
		.*) pkgs+=("$w") ;;
		esac
	done
	[[ -n $bench ]] && run=""
	[[ -z $run$bench$fuzz ]] && continue
	list "${pkgs[@]}"
	for kind in run bench fuzz; do
		pattern=${!kind}
		[[ -z $pattern ]] && continue
		case $kind in
		run) prefix='(Test|Fuzz|Example)' ;;
		bench) prefix='Benchmark' ;;
		fuzz) prefix='Fuzz' ;;
		esac
		IFS='|' read -ra alts <<<"$pattern"
		for alt in "${alts[@]}"; do
			if [[ $(grep -E "^$prefix" <<<"$names" | grep -cE -- "$alt") == 0 ]]; then
				echo "$workflow: -$kind alternative '$alt' selects nothing in ${pkgs[*]}:"
				echo "  $line"
				status=1
			fi
		done
	done
done < <(grep -E 'go test .*-(run|bench|fuzz) ' "$workflow" | sed 's/^[[:space:]]*run:[[:space:]]*//; s/^[[:space:]]*//')
exit $status
