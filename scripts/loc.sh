#!/bin/sh
# Non-test Go and assembly lines outside benchmark/ — the size number ROADMAP
# aim 2 tracks.
cd "$(dirname "$0")/.." && find . \( -name '*.go' -o -name '*.s' \) -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l
