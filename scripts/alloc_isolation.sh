#!/bin/sh
# alloc_isolation.sh — run every allocation test on its own.
#
# A testing.AllocsPerRun assertion can pass in the package run only
# because an earlier test warmed a lazily built table or pool; run
# alone, the one-off build lands inside the measured loop. This script
# finds every Test function under internal/ that calls AllocsPerRun and
# runs each in its own process, so such order dependence fails here.
#
# Usage:
#   scripts/alloc_isolation.sh
set -eu

cd "$(dirname "$0")/.."

# "dir name" pairs: the Test function enclosing each AllocsPerRun call.
pairs=$(grep -rl --include='*_test.go' 'AllocsPerRun' internal | sort | while read -r f; do
	awk -v dir="$(dirname "$f")" '
		/^func / {
			name = ""
			if (match($0, /^func Test[A-Za-z0-9_]*\(/)) name = substr($0, 6, RLENGTH - 6)
		}
		/AllocsPerRun/ && name != "" && !seen[name]++ { print dir, name }
	' "$f"
done)

if [ -z "$pairs" ]; then
	echo "alloc isolation: no AllocsPerRun tests found" >&2
	exit 1
fi

n=0
fail=0
echo "$pairs" | {
	while read -r dir name; do
		n=$((n + 1))
		if ! go test -count=1 -run "^${name}\$" "./$dir/" >/dev/null 2>&1; then
			echo "FAIL (alone): ./$dir $name" >&2
			go test -count=1 -run "^${name}\$" "./$dir/" >&2 || true
			fail=$((fail + 1))
		fi
	done
	echo "alloc isolation: $n tests, $fail failed" >&2
	[ "$fail" -eq 0 ]
}
