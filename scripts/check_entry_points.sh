#!/usr/bin/env bash
# Runs `python -m densecode` and the experiment scripts as processes: every
# golden command diffed against its file under tests/golden, then the exit code
# 2 of each usage error, and the last stderr line of those the README shows.
# Run from the repository root: bash scripts/check_entry_points.sh
set -eo pipefail
export PYTHONPATH=src
python -m densecode roundtrip --n 5 | diff - tests/golden/roundtrip_n5.txt
python -m densecode roundtrip --n 7 | diff - tests/golden/roundtrip_n7.txt
python -m densecode roundtrip --n 8 | diff - tests/golden/roundtrip_n8.txt
python -m densecode session --n 3 --random 50 --seed 11 | diff - tests/golden/session_n3_r50_s11.json
python -m densecode session --n 8 --random 40 --seed 8 | diff - tests/golden/session_n8_r40_s8.json
python -m densecode session --n 13 --random 20 --seed 13 | diff - tests/golden/session_n13_r20_s13.json
python -m densecode basis --n 3 | diff - tests/golden/basis_n3.txt
python -m densecode basis --n 3 --format json | diff - tests/golden/basis_n3.json
python -m densecode ghz-compare | diff - tests/golden/ghz_compare.json
python -m densecode factorize | diff - tests/golden/factorize.txt
python scripts/resource_comparison.py | diff - tests/golden/resource_comparison.txt
python scripts/protocol_demo.py | diff - tests/golden/protocol_demo.txt
code=0
python -m densecode roundtrip --n 9 || code=$?
test "$code" -eq 2
code=0
python -m densecode || code=$?
test "$code" -eq 2
# an integer flag takes ASCII digits only, as the s0:N selector does
code=0
python -m densecode roundtrip --n ٢ || code=$?
test "$code" -eq 2
# the usage line wraps with the terminal width: compare the last line
code=0
err=$(python -m densecode roundtrip --n 5 --format json 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
test "$(printf '%s\n' "$err" | tail -n 1)" = "densecode: error: unrecognized arguments: --format json"
# the README Limits block: each out-of-range value and its one error line
code=0
err=$(python -m densecode capacity s0:13 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
test "$(printf '%s\n' "$err" | tail -n 1)" = "error: s0:N must be in [1, 12] (MAX_CAPACITY_PAIRS), got 13"
code=0
err=$(python -m densecode session --n 2 --random 1000000000000000 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
test "$(printf '%s\n' "$err" | tail -n 1)" = "error: --random must be in [0, 524288] (MAX_SESSION_STEPS), got 1000000000000000"
code=0
err=$(python -m densecode session --n 1 0 4 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
test "$(printf '%s\n' "$err" | tail -n 1)" = "error: message must be in [0, 3] (4**N - 1 for N = 1), got 4"
code=0
err=$(python -m densecode session --n 14 --random 1 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
test "$(printf '%s\n' "$err" | tail -n 1)" = "error: --n must be in [1, 13] (MAX_PAIRS), got 14"
code=0
err=$(python -m densecode session --n 1 --random 1 --seed -1 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
test "$(printf '%s\n' "$err" | tail -n 1)" = "error: --seed must be in [0, inf] (PRNG seed), got -1"
