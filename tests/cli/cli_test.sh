#!/bin/sh
# The CLI front-end contract (src/support/flags.h): every CLI exits 2 with
# exactly one line on stderr for junk numbers, unknown or removed flags,
# missing values, malformed --spec files and output directories it cannot
# create; `runner` runs an app end to end and writes both trace outputs into
# WORKDIR, and `campaign` writes a full report with its host timing there.
#
#   cli_test.sh CAMPAIGN FUZZ RUNNER FIGURE9_LOAD WORKDIR

campaign=$1 fuzz=$2 runner=$3 figure9_load=$4 work=$5
mkdir -p "$work" || exit 1
status=0

# expect CODE COMMAND [ARGS...]: COMMAND must exit CODE and, when CODE is 2,
# print exactly one line to stderr.
expect() {
  want=$1
  shift
  err=$("$@" 2>&1 >/dev/null)
  got=$?
  lines=$(printf '%s\n' "$err" | wc -l)
  if [ "$got" -ne "$want" ] || { [ "$want" -eq 2 ] && { [ -z "$err" ] || [ "$lines" -ne 1 ]; }; }; then
    echo "FAIL: exit $got (want $want), $lines stderr line(s): $*"
    printf '%s\n' "$err"
    status=1
  fi
}

for cli in "$campaign" "$fuzz" "$runner" "$figure9_load"; do
  expect 2 "$cli" --bogus
  expect 2 "$cli" --bogus=1
  expect 2 "$cli" stray
done

# Junk, signed, overflowing and out-of-range numbers, in both spellings.
expect 2 "$campaign" --jobs abc
expect 2 "$campaign" --seed=-1
expect 2 "$campaign" --fault-sweep 0
expect 2 "$fuzz" --count 12x
expect 2 "$fuzz" --seed 18446744073709551616
expect 2 "$fuzz" --jobs=+2
expect 2 "$runner" --engine jit
expect 2 "$figure9_load" --requests 0
expect 2 "$campaign" --figures --jobs x
expect 2 "$campaign" --jobs 1025
expect 2 "$fuzz" --jobs 1025

# Missing values.
expect 2 "$campaign" --jobs
expect 2 "$campaign" --report-json=
expect 2 "$fuzz" --seed
expect 2 "$runner" --app
expect 2 "$figure9_load" --engine

# Switches take no value.
expect 2 "$campaign" --deterministic=yes

# A --spec file's numbers parse as strictly as flags.
printf 'seed 12abc\n' > "$work/bad.spec"
expect 2 "$campaign" --spec "$work/bad.spec"

# Output directories are checked before any work runs.
expect 2 "$campaign" --apps PinLock --fault-sweep 1 --snapshot-dir /dev/null/x
expect 2 "$fuzz" --count 1 --corpus-dir /dev/null/x

# Removed flags: the fleet roles and their options, and the flags folded into
# them or removed before the fleet itself went.
for flag in --workers --serve --connect --unit-size --lease-ms --auth-token \
    --allow --chaos-kill-after --chaos-stop-after --chaos-drop-after \
    --worker --listen --fuzz-count --fuzz-seed --cache-dir --worker-id \
    --reconnect --reconnect-delay-ms --target-unit-ms; do
  expect 2 "$campaign" "$flag" 1
  expect 2 "$fuzz" "$flag" 1
done

# runner runs an app and writes a non-empty Chrome trace and JSONL stream.
rm -f "$work/runner.trace.json" "$work/runner.jsonl"
expect 0 "$runner" --app pinlock --mode opec --trace-out "$work/runner.trace.json" \
  --jsonl-out "$work/runner.jsonl"
for out in "$work/runner.trace.json" "$work/runner.jsonl"; do
  if [ ! -s "$out" ]; then
    echo "FAIL: runner wrote no $out"
    status=1
  fi
done

# runner records events only for --trace-out, --jsonl-out and --profile, so
# a run without them has no ring buffer to wrap. The run itself must succeed.
if ! out=$("$runner" --app tcp_echo_dma --mode opec --engine bytecode --rv report 2>&1); then
  echo "FAIL: runner --app tcp_echo_dma --rv report exited non-zero"
  status=1
elif ! printf '%s\n' "$out" | grep -q '^TCP-Echo-DMA \[opec/bytecode\]: ok=1 '; then
  echo "FAIL: runner --app tcp_echo_dma --rv report printed no ok=1 summary"
  status=1
elif printf '%s\n' "$out" | grep -q 'ring buffer wrapped'; then
  echo "FAIL: runner recorded events that no export asked for"
  status=1
fi

# Without --deterministic the report is the full one, host timing included.
rm -f "$work/report.json"
expect 0 "$campaign" --apps PinLock --report-json "$work/report.json"
if ! grep -q '"timing"' "$work/report.json"; then
  echo "FAIL: campaign --report-json wrote no \"timing\" section"
  status=1
fi

exit $status
