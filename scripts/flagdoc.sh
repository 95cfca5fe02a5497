#!/usr/bin/env bash
# Fails when the flags relm-serve / relm-router print with -h and the flag
# tables of docs/OPERATIONS.md (rows starting "| `-flag`") disagree.
set -euo pipefail
cd "$(dirname "$0")/.."

have="$({ go run ./cmd/relm-serve -h; go run ./cmd/relm-router -h; } 2>&1 | sed -n 's/^  \(-[a-z-]*\).*/\1/p' | sort -u)"
doc="$(grep '^| `-' docs/OPERATIONS.md | cut -d'|' -f2 | grep -o '`-[a-z-]*`' | tr -d '`' | sort -u)"
if [ -z "$have" ] || [ -z "$doc" ]; then
  echo "flagdoc: listed no flags from the binaries' -h or from the doc tables" >&2
  exit 1
fi
undocumented="$(comm -23 <(echo "$have") <(echo "$doc"))"
stale="$(comm -13 <(echo "$have") <(echo "$doc"))"
[ -z "$undocumented" ] || echo "flagdoc: no row in docs/OPERATIONS.md for:" $undocumented >&2
[ -z "$stale" ] || echo "flagdoc: docs/OPERATIONS.md names flags neither binary has:" $stale >&2
[ -z "$undocumented$stale" ]
