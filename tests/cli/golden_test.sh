#!/bin/sh
# Modeled-output goldens: modeled cycles and statements, the deterministic
# campaign reports and the text of every table and figure must not move.
# Each output below must equal its file in tests/goldens/ byte for byte:
#
#   scenarios.json    campaign --apps all --modes both --deterministic
#                     (the --report-json file), and the same sweep with
#                     --engine bytecode once its "engine" fields are removed
#   fault_sweep.json  campaign --apps PinLock,Animation --fault-sweep 24
#                     --deterministic (the --report-json file), and the same
#                     sweep with --engine bytecode --jobs 1 once its "engine"
#                     fields are removed
#   figures.txt       campaign --figures, with the digits of Table 3's
#                     Time(s) column (host time) masked as '#'
#   figure9_load.txt  figure9_load --requests 24 --engine both
#   rv_report.txt     the "RV report" section of runner --rv=report for
#                     pinlock, tcp_echo and tcp_echo_dma in both modes, then
#                     the per-monitor block of the fault_sweep.json sweep run
#                     with --rv report; the interp and the bytecode runs must
#                     both produce it (rv_report_bytecode.txt in WORKDIR)
#
# A change that moves a modeled number on purpose says why and regenerates
# the goldens from the outputs this script leaves in WORKDIR (from the
# repository root, build tree in build/):
#
#   ctest --test-dir build -R golden_test
#   for f in scenarios.json fault_sweep.json figures.txt figure9_load.txt \
#       rv_report.txt; do
#     cp build/tests/golden_test/$f tests/goldens/
#   done
#
#   golden_test.sh CAMPAIGN FIGURE9_LOAD RUNNER GOLDEN_DIR WORKDIR

campaign=$1 figure9_load=$2 runner=$3 goldens=$4 work=$5
mkdir -p "$work" && cd "$work" || exit 1
status=0

# run COMMAND [ARGS...]: COMMAND must exit 0.
run() {
  "$@" > /dev/null
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: exit $rc: $*"
    status=1
  fi
}

# check FILE GOLDEN: FILE must equal tests/goldens/GOLDEN.
check() {
  if ! cmp "$1" "$goldens/$2"; then
    echo "FAIL: $1 differs from tests/goldens/$2"
    status=1
  fi
}

scenarios="--apps all --modes both --deterministic"
run "$campaign" $scenarios --report-json scenarios.json
check scenarios.json scenarios.json
run "$campaign" $scenarios --engine bytecode --report-json bytecode.json
grep -q '"engine": "bytecode"' bytecode.json || { echo "FAIL: no bytecode rows"; status=1; }
sed 's/, "engine": "bytecode"//' bytecode.json > bytecode_unlabeled.json
check bytecode_unlabeled.json scenarios.json

# The fault sweeps also print their RV report (stdout only; the JSON does
# not depend on --rv report).
"$campaign" --apps PinLock,Animation --fault-sweep 24 --deterministic --rv report \
  --report-json fault_sweep.json > fault_sweep_interp.out \
  || { echo "FAIL: campaign --fault-sweep"; status=1; }
check fault_sweep.json fault_sweep.json
"$campaign" --apps PinLock,Animation --fault-sweep 24 --engine bytecode --jobs 1 \
  --deterministic --rv report --report-json fault_sweep_bytecode.json \
  > fault_sweep_bytecode.out || { echo "FAIL: campaign --fault-sweep bytecode"; status=1; }
grep -q '"engine": "bytecode"' fault_sweep_bytecode.json || { echo "FAIL: no bytecode faults"; status=1; }
sed 's/, "engine": "bytecode"//' fault_sweep_bytecode.json > fault_sweep_bytecode_unlabeled.json
check fault_sweep_bytecode_unlabeled.json fault_sweep.json

"$campaign" --figures > figures_raw.txt || { echo "FAIL: campaign --figures"; status=1; }
awk -F'|' -v OFS='|' '/^Table 3:/ { t = 1 } /^$/ { t = 0 }
  t && /^\|/ && $5 !~ /Time/ { gsub(/[0-9]/, "#", $5) } 1' figures_raw.txt > figures.txt
check figures.txt figures.txt

"$figure9_load" --requests 24 --engine both > figure9_load.txt \
  || { echo "FAIL: figure9_load"; status=1; }
check figure9_load.txt figure9_load.txt

# rv_section: the "RV report" line and the indented lines that follow it.
rv_section() {
  awk '/^RV report/ { p = 1; print; next } p && /^  / { print; next } { p = 0 }'
}
for engine in interp bytecode; do
  out=rv_report_$engine.txt
  : > "$out"
  for app in pinlock tcp_echo tcp_echo_dma; do
    for mode in vanilla opec; do
      echo "runner --app $app --mode $mode --rv=report" >> "$out"
      "$runner" --app "$app" --mode "$mode" --engine "$engine" --rv=report > runner.out \
        || { echo "FAIL: runner --app $app --mode $mode --engine $engine"; status=1; }
      rv_section < runner.out >> "$out"
    done
  done
  echo "campaign --apps PinLock,Animation --fault-sweep 24 --rv report" >> "$out"
  rv_section < "fault_sweep_$engine.out" >> "$out"
done
cp rv_report_interp.txt rv_report.txt
check rv_report.txt rv_report.txt
check rv_report_bytecode.txt rv_report.txt

exit $status
