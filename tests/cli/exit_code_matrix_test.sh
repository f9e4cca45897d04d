#!/bin/sh
# CLI exit-code matrix: every analysis command against a good trace, a good
# .lockdb snapshot, a damaged input, and a missing path — plus the strict
# flag-validation contract (unknown or inapplicable flag = usage error 64).
#
# Exit codes: 0 ok, 1 input/analysis error, 2 bad command line (usage),
# 64 strict usage error (bad flag, bad pass name, doctor misuse).
#
# Usage: exit_code_matrix_test.sh <lockdoc-binary> <scratch-dir>
set -u

LOCKDOC="$1"
DIR="$2"
mkdir -p "$DIR"
failures=0

expect() {
  want="$1"
  shift
  "$@" > /dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: expected exit $want, got $got: $*" >&2
    failures=$((failures + 1))
  fi
}

# Fixtures: good trace + snapshot, damaged trace (truncated), damaged
# snapshot (flipped bytes), garbage file, missing path.
"$LOCKDOC" simulate --out "$DIR/mx.trace" --ops 1500 --seed 5 || exit 1
"$LOCKDOC" import "$DIR/mx.trace" --out "$DIR/mx.lockdb" || exit 1
head -c 50000 "$DIR/mx.trace" > "$DIR/mx_damaged.trace"
cp "$DIR/mx.lockdb" "$DIR/mx_damaged.lockdb"
printf '\377\377\377\377' | dd of="$DIR/mx_damaged.lockdb" bs=1 seek=4000 conv=notrunc 2> /dev/null
echo garbage > "$DIR/mx_garbage.trace"
MISSING="$DIR/does_not_exist.trace"
# A snapshot in the retired LOCKDB01 container (a checked-in fixture).
RETIRED="$(dirname "$0")/../core/testdata/golden_mini.lockdb"

# Every analysis command: good inputs succeed, damaged and missing fail 1.
for cmd in stats derive check violations lock-order modes report analyze; do
  expect 0 "$LOCKDOC" "$cmd" "$DIR/mx.trace"
  expect 0 "$LOCKDOC" "$cmd" "$DIR/mx.lockdb"
  expect 1 "$LOCKDOC" "$cmd" "$DIR/mx_damaged.trace"
  expect 1 "$LOCKDOC" "$cmd" "$DIR/mx_damaged.lockdb"
  expect 1 "$LOCKDOC" "$cmd" "$MISSING"
done
expect 0 "$LOCKDOC" export-csv "$DIR/mx.trace" --dir "$DIR/mx_csv"
expect 1 "$LOCKDOC" export-csv "$MISSING" --dir "$DIR/mx_csv"
expect 0 "$LOCKDOC" diff "$DIR/mx.trace" "$DIR/mx.lockdb"
expect 1 "$LOCKDOC" diff "$MISSING" "$DIR/mx.trace"
expect 1 "$LOCKDOC" import "$MISSING" --out "$DIR/x.lockdb"
expect 1 "$LOCKDOC" import "$DIR/mx_damaged.trace" --out "$DIR/x.lockdb"

# Damaged traces are salvageable; damaged snapshots are not (checksums).
expect 0 "$LOCKDOC" stats "$DIR/mx_damaged.trace" --salvage
expect 1 "$LOCKDOC" stats "$DIR/mx_damaged.lockdb" --salvage

# doctor: 0 clean, 1 salvageable damage, 2 unreadable, 64 usage.
expect 0 "$LOCKDOC" doctor "$DIR/mx.trace"
expect 0 "$LOCKDOC" doctor "$DIR/mx.lockdb"
expect 1 "$LOCKDOC" doctor "$DIR/mx_damaged.trace"
expect 1 "$LOCKDOC" doctor "$DIR/mx_damaged.lockdb"
expect 2 "$LOCKDOC" doctor "$DIR/mx_garbage.trace"
expect 2 "$LOCKDOC" doctor "$MISSING"
expect 64 "$LOCKDOC" doctor
# Snapshot repair: salvageable damage still reports 1, and the repaired
# container comes out structurally clean (doctor exit 0 modulo payload).
expect 1 "$LOCKDOC" doctor "$DIR/mx_damaged.lockdb" --repair "$DIR/mx_repaired.lockdb"
[ -f "$DIR/mx_repaired.lockdb" ] || {
  echo "FAIL: doctor --repair did not write the repaired snapshot" >&2
  failures=$((failures + 1))
}

# A retired LOCKDB01 snapshot is unreadable, not damaged: analysis fails,
# doctor says to re-import from the trace (exit 2), and --repair cannot
# help either.
expect 1 "$LOCKDOC" check "$RETIRED"
expect 2 "$LOCKDOC" doctor "$RETIRED"
expect 2 "$LOCKDOC" doctor "$RETIRED" --repair "$DIR/mx_retired_fixed.lockdb"
[ ! -e "$DIR/mx_retired_fixed.lockdb" ] || {
  echo "FAIL: doctor --repair wrote a repaired copy of a retired snapshot" >&2
  failures=$((failures + 1))
}
"$LOCKDOC" doctor "$RETIRED" > "$DIR/mx_retired_doctor.txt" 2>&1
grep -q 're-import from the trace with `lockdoc import`' "$DIR/mx_retired_doctor.txt" &&
  grep -q '^verdict: unreadable$' "$DIR/mx_retired_doctor.txt" || {
  echo "FAIL: doctor on a retired snapshot did not say to re-import it" >&2
  failures=$((failures + 1))
}

# No command line at all / unknown command: usage, exit 2.
expect 2 "$LOCKDOC"
expect 2 "$LOCKDOC" frobnicate "$DIR/mx.trace"

# Strict flag validation: a flag the command does not accept is exit 64,
# even when the input is perfectly fine.
expect 64 "$LOCKDOC" stats "$DIR/mx.trace" --tac 0.9
expect 64 "$LOCKDOC" derive "$DIR/mx.trace" --limit 3
expect 64 "$LOCKDOC" check "$DIR/mx.trace" --full
expect 64 "$LOCKDOC" violations "$DIR/mx.trace" --rules /dev/null
expect 64 "$LOCKDOC" lock-order "$DIR/mx.trace" --all
expect 64 "$LOCKDOC" modes "$DIR/mx.trace" --spec
expect 64 "$LOCKDOC" report "$DIR/mx.trace" --out-dir "$DIR/x"
expect 64 "$LOCKDOC" simulate --out "$DIR/x.trace" --salvage
expect 64 "$LOCKDOC" import "$DIR/mx.trace" --out "$DIR/x.lockdb" --bogus-flag
expect 64 "$LOCKDOC" import "$DIR/mx.trace" --out "$DIR/x.lockdb" --format v2
expect 64 "$LOCKDOC" doctor "$DIR/mx.trace" --jobs 2
expect 64 "$LOCKDOC" analyze "$DIR/mx.trace" --unknown-flag 1

# analyze-specific usage errors.
expect 64 "$LOCKDOC" analyze "$DIR/mx.trace" --passes bogus
expect 64 "$LOCKDOC" analyze "$DIR/mx.trace" --passes diff
expect 64 "$LOCKDOC" analyze "$DIR/mx.trace" --baseline
expect 64 "$LOCKDOC" check "$DIR/mx.trace" --timings-json

# --format: good values work everywhere the flag exists; a bad or bare
# value is exit 64; commands without a report document reject it.
expect 0 "$LOCKDOC" violations "$DIR/mx.trace" --format json
expect 0 "$LOCKDOC" report "$DIR/mx.lockdb" --format html
expect 0 "$LOCKDOC" analyze "$DIR/mx.trace" --format json
expect 0 "$LOCKDOC" diff "$DIR/mx.trace" "$DIR/mx.lockdb" --format json
expect 64 "$LOCKDOC" violations "$DIR/mx.trace" --format bogus
expect 64 "$LOCKDOC" violations "$DIR/mx.trace" --format
expect 64 "$LOCKDOC" analyze "$DIR/mx.trace" --format xml
expect 64 "$LOCKDOC" stats "$DIR/mx.trace" --format json

# --filter-config: a missing or malformed file is exit 64 before any input
# is loaded; a well-formed one is accepted.
printf '[ignored-functions]\nvfs_write\n' > "$DIR/mx_filter_ok.conf"
printf 'orphan-name\n' > "$DIR/mx_filter_bad.conf"
printf '[no-such-section]\n' > "$DIR/mx_filter_badsec.conf"
expect 0 "$LOCKDOC" violations "$DIR/mx.trace" --filter-config "$DIR/mx_filter_ok.conf"
expect 0 "$LOCKDOC" report "$DIR/mx.trace" --filter-config "$DIR/mx_filter_ok.conf"
expect 64 "$LOCKDOC" violations "$DIR/mx.trace" --filter-config "$MISSING"
expect 64 "$LOCKDOC" violations "$DIR/mx.trace" --filter-config "$DIR/mx_filter_bad.conf"
expect 64 "$LOCKDOC" violations "$DIR/mx.trace" --filter-config "$DIR/mx_filter_badsec.conf"
expect 64 "$LOCKDOC" violations "$DIR/mx.trace" --filter-config
expect 64 "$LOCKDOC" check "$DIR/mx.trace" --filter-config "$DIR/mx_filter_ok.conf"

# serve: strict usage validation up front (64), clean --once runs exit 0.
mkdir -p "$DIR/mx_spool/incoming"
expect 0 "$LOCKDOC" serve "$DIR/mx_spool" --once
expect 64 "$LOCKDOC" serve
expect 64 "$LOCKDOC" serve "$DIR/mx_missing_spool" --once
expect 64 "$LOCKDOC" serve "$DIR/mx_spool" --once --state
expect 64 "$LOCKDOC" serve "$DIR/mx_spool" --state "$DIR/mx_garbage.trace/state" --once
expect 64 "$LOCKDOC" serve "$DIR/mx_spool" --once --poll-ms 50
expect 64 "$LOCKDOC" serve "$DIR/mx_spool" --once --max-resident 0
expect 64 "$LOCKDOC" serve "$DIR/mx_spool" --once --max-resident abc
expect 64 "$LOCKDOC" serve "$DIR/mx_spool" --once --deadline-ms -5
expect 64 "$LOCKDOC" serve "$DIR/mx_spool" --once --bogus-flag 1

if [ "$failures" -ne 0 ]; then
  echo "$failures exit-code expectations failed" >&2
  exit 1
fi
echo "exit-code matrix OK"
