#!/bin/sh
# The fork fleet reproduces the in-process sweeps: `campaign --workers 2`
# writes the same --deterministic report as `campaign --jobs 2` — warm, cold
# (--cold-boot) and on the bytecode tier — and the same stdout apart from the
# wall-clock line and the `wrote` path, and `fuzz --workers 2` prints exactly
# what `fuzz` prints.
#
#   fleet_test.sh CAMPAIGN FUZZ WORKDIR

campaign=$1 fuzz=$2 work=$3
mkdir -p "$work" && cd "$work" || exit 1
sweep="--apps PinLock,Animation --fault-sweep 24 --deterministic"
status=0

$campaign $sweep --jobs 2 --report-json inproc.json > inproc.txt
$campaign $sweep --workers 2 --report-json fleet.json > fleet.txt
cmp inproc.json fleet.json || status=1
sed '1d; /^wrote /d' inproc.txt > inproc.body
sed '1d; /^wrote /d' fleet.txt > fleet.body
cmp inproc.body fleet.body || status=1
grep -q '^wrote fleet.json$' fleet.txt || status=1

for variant in --cold-boot "--engine bytecode"; do
  $campaign $sweep $variant --jobs 2 --report-json inproc_v.json > /dev/null
  $campaign $sweep $variant --workers 2 --report-json fleet_v.json > /dev/null
  cmp inproc_v.json fleet_v.json || status=1
done

$fuzz --seed 1 --count 20 > fuzz_inproc.txt
$fuzz --seed 1 --count 20 --workers 2 > fuzz_fleet.txt
cmp fuzz_inproc.txt fuzz_fleet.txt || status=1
test -s fuzz_fleet.txt || status=1

exit $status
