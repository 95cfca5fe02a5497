#!/usr/bin/env bash
# Fails when the flags a binary prints with -h and the flag table of its
# doc (rows starting "| `-flag`") disagree: relm-serve / relm-router against
# docs/OPERATIONS.md, relm-loadgen against docs/LOADGEN.md, simrun and
# experiments against README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# check DOC CMD... compares the flags the CMDs print with DOC's flag tables.
check() {
  local doc_file=$1 have doc undocumented stale cmd
  shift
  have="$(for cmd in "$@"; do go run "$cmd" -h 2>&1; done | sed -n 's/^  \(-[a-z-]*\).*/\1/p' | sort -u)"
  doc="$(grep '^| `-' "$doc_file" | cut -d'|' -f2 | grep -o '`-[a-z-]*`' | tr -d '`' | sort -u)"
  if [ -z "$have" ] || [ -z "$doc" ]; then
    echo "flagdoc: listed no flags from $* -h or from the tables of $doc_file" >&2
    return 1
  fi
  undocumented="$(comm -23 <(echo "$have") <(echo "$doc"))"
  stale="$(comm -13 <(echo "$have") <(echo "$doc"))"
  [ -z "$undocumented" ] || echo "flagdoc: no row in $doc_file for:" $undocumented >&2
  [ -z "$stale" ] || echo "flagdoc: $doc_file names flags that $* do not have:" $stale >&2
  [ -z "$undocumented$stale" ]
}

status=0
check docs/OPERATIONS.md ./cmd/relm-serve ./cmd/relm-router || status=1
check docs/LOADGEN.md ./cmd/relm-loadgen || status=1
check README.md ./cmd/simrun ./cmd/experiments || status=1
exit $status
