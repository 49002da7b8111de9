#!/usr/bin/env bash
# Regenerates the reference outputs of the suite programs with the host
# C compiler, independently of the compiler under test. For each
# internal/bench/programs/<name>.c it writes <name>.out (stdout) and
# <name>.exit (exit status). Run from the repository root:
#   bash perfbench/refs/gen.sh
set -euo pipefail
refs=perfbench/refs
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
for src in internal/bench/programs/*.c; do
	name=$(basename "$src" .c)
	gcc -O0 -fwrapv -w -include "$refs/prelude.h" -o "$work/$name" "$src"
	status=0
	"$work/$name" >"$refs/$name.out" || status=$?
	echo "$status" >"$refs/$name.exit"
done
