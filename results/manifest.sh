#!/usr/bin/env bash
# The manifest of results/: every file here is produced by exactly one
# command below, run from the repository root:
#
#   bash results/manifest.sh
#
# Runs are seeded (seedFor), so a clean checkout reproduces each file
# byte for byte; CI runs this script and fails on any diff.
set -euo pipefail

# table1.csv fig2.txt fig5.csv fig6a.csv fig6b.csv fig7.csv fig8.csv
# fig9a.csv fig9b.csv fig10a.csv fig10b.csv
go run ./cmd/experiments -exp all -runs 100 -progress=false -out results >/dev/null

# gpserr.csv mobility.csv
go run ./cmd/experiments -exp gpserr,mobility -runs 30 -progress=false -out results >/dev/null

# overhead.csv
go run ./cmd/experiments -exp overhead -runs 12 -progress=false -out results >/dev/null
