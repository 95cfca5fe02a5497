#!/usr/bin/env bash
# Fails when a second way to talk between processes appears: a request built
# by hand (http.NewRequest*) or a net/http client (http.Client{, http.Transport{,
# http.DefaultClient, http.Get(, http.Post() in non-test Go outside
# internal/wire, whose Client.Do is the one caller, or a private writeJSON
# beside wire.WriteJSON. benchmark/ is exempt: it measures the service with a
# client of its own.
set -euo pipefail
cd "$(dirname "$0")/.."

src() { find . -name '*.go' -not -path './benchmark/*' "$@"; }
builders="$(src -not -name '*_test.go' -not -path './internal/wire/*' | xargs grep -nE 'http\.(NewRequest|Client\{|Transport\{|DefaultClient|Get\(|Post\()' || true)"
writers="$(src | xargs grep -n '^func writeJSON(' || true)"
[ -z "$builders" ] || printf 'onewire: request built or net/http client used outside internal/wire (use wire.Client.Do):\n%s\n' "$builders" >&2
[ -z "$writers" ] || printf 'onewire: private writeJSON (use wire.WriteJSON):\n%s\n' "$writers" >&2
[ -z "$builders$writers" ]
