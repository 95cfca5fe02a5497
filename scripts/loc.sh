#!/bin/sh
# Non-test Go lines outside benchmark/ — the size number ROADMAP aim 2 tracks.
cd "$(dirname "$0")/.." && find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l
