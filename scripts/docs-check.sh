#!/bin/sh
# docs-check: fail if README.md or docs/*.md reference Go symbols or
# CLI flags that no longer exist in the source tree. Deliberately a
# simple grep-based check: it keys on backticked tokens, the way the
# docs mark identifiers, so prose never triggers it.
set -eu
cd "$(dirname "$0")/.."

docs="README.md"
for f in docs/*.md; do
  docs="$docs $f"
done

fail=0

# Rule 1: dotted symbols in backticks (`pkg.Symbol`, `Type.Method`,
# chains like `a.B.C`): the final identifier must appear somewhere in
# the Go sources. File names (`FOO.md` and friends) are skipped.
for sym in $(grep -ho '`[A-Za-z][A-Za-z0-9_]*\(\.[A-Za-z][A-Za-z0-9_]*\)\{1,\}`' $docs | tr -d '`' | sort -u); do
  last=${sym##*.}
  case "$last" in
    md|go|json|dvm|s|sh|mod) continue ;;
  esac
  if ! grep -rq --include='*.go' "$last" .; then
    echo "docs-check: \`$sym\` referenced in docs but \"$last\" not found in any .go file" >&2
    fail=1
  fi
done

# Rule 2: plain mixed-case identifiers in backticks (`InvokeBatch`,
# `ZeroCopyHandoffs`, `TestFoo`): must appear in the Go sources.
for sym in $(grep -ho '`[A-Z][a-z][A-Za-z0-9]\{2,\}`' $docs | tr -d '`' | sort -u); do
  if ! grep -rq --include='*.go' "$sym" .; then
    echo "docs-check: \`$sym\` referenced in docs but not found in any .go file" >&2
    fail=1
  fi
done

# Rule 3: CLI flags in backticks (`-byte-fairness`): the flag name must be
# declared in cmd/ (flag.X("name", ...)) or appear in the Makefile
# (go-tool flags like `-race`).
for f in $(grep -ho '`-[a-z][a-z0-9-]*`' $docs | tr -d '`' | sort -u); do
  name=${f#-}
  if ! grep -rq --include='*.go' "\"$name\"" cmd/ && ! grep -q -- "$f" Makefile; then
    echo "docs-check: flag \`$f\` referenced in docs but not declared in cmd/ or used in Makefile" >&2
    fail=1
  fi
done

# Rule 4: the reverse of rule 3 — every CLI flag cmd/dandelion declares
# must be documented: its backticked name has to appear in README.md or
# docs/. Catches flags added without a README table row.
for name in $(grep -rho 'flag\.[A-Za-z]*("[a-z][a-z0-9-]*"' cmd/dandelion/ | sed 's/.*("\([^"]*\)".*/\1/' | sort -u); do
  if ! grep -q -- "\`-$name\`" $docs; then
    echo "docs-check: flag -$name declared in cmd/dandelion but not documented in README.md or docs/" >&2
    fail=1
  fi
done

# Rule 5: every wire frame type constant (Frame* in internal/wire) must
# be listed in docs/WIRE.md as a backticked identifier. The frame
# grammar is a protocol surface: an undocumented record kind is a wire
# format change nobody can interoperate with.
for name in $(grep -ho '^\s*Frame[A-Za-z0-9]*' internal/wire/*.go | tr -d '[:blank:]' | sort -u); do
  if ! grep -q -- "\`$name\`" docs/WIRE.md; then
    echo "docs-check: wire frame constant $name not documented in docs/WIRE.md" >&2
    fail=1
  fi
done

# Rule 6: every journal record-kind constant (Kind* in internal/journal)
# must be listed in docs/JOURNAL.md as a backticked identifier. The
# journal is a durability surface: an undocumented record kind is a log
# a future reader cannot replay by hand.
for name in $(grep -ho '^\s*Kind[A-Za-z0-9]\{1,\}' internal/journal/*.go | tr -d '[:blank:]' | sort -u); do
  if ! grep -q -- "\`$name\`" docs/JOURNAL.md; then
    echo "docs-check: journal record kind $name not documented in docs/JOURNAL.md" >&2
    fail=1
  fi
done

# Rule 7: every fault-kind constant (Fault* in internal/faultinject)
# must be documented in docs/ROBUSTNESS.md as a backticked identifier.
# The fault plan is an operator surface: an undocumented fault kind is a
# chaos knob nobody can use deliberately.
for name in $(grep -ho '^\s*Fault[A-Za-z0-9]\{1,\}' internal/faultinject/*.go | tr -d '[:blank:]' | sort -u); do
  if ! grep -q -- "\`$name\`" docs/ROBUSTNESS.md; then
    echo "docs-check: fault kind $name not documented in docs/ROBUSTNESS.md" >&2
    fail=1
  fi
done

# Rule 8: every registered workload composition name (the quoted value
# of a Workload* constant in internal/workloads) must be documented in
# docs/WORKLOADS.md as a backticked identifier. Served workloads are an
# operator surface: an undocumented composition is a route nobody knows
# how to invoke.
for name in $(sed -n 's/^\s*Workload[A-Za-z0-9]*\s*=\s*"\([A-Za-z0-9]*\)".*/\1/p' internal/workloads/*.go | sort -u); do
  if ! grep -q -- "\`$name\`" docs/WORKLOADS.md; then
    echo "docs-check: workload composition $name not documented in docs/WORKLOADS.md" >&2
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "docs-check: OK"
fi
exit $fail
