#!/bin/sh
# The CLI front-end contract (src/support/flags.h): every CLI exits 2 with
# exactly one line on stderr for junk numbers, unknown or removed flags and
# missing values; the fleet roles are mutually exclusive; --traffic refuses
# every fleet role.
#
#   cli_test.sh CAMPAIGN FUZZ RUNNER FIGURE9_LOAD

campaign=$1 fuzz=$2 runner=$3 figure9_load=$4
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
expect 2 "$campaign" --workers 257
expect 2 "$fuzz" --serve 65536

# Missing values.
expect 2 "$campaign" --jobs
expect 2 "$campaign" --report-json=
expect 2 "$fuzz" --seed
expect 2 "$runner" --app
expect 2 "$figure9_load" --engine

# Switches take no value.
expect 2 "$campaign" --deterministic=yes

# Flags folded into the fleet roles, or gone with the artifact cache, no
# longer exist.
expect 2 "$campaign" --worker
expect 2 "$campaign" --listen 47000
expect 2 "$fuzz" --fuzz-count 3
expect 2 "$fuzz" --fuzz-seed 1
expect 2 "$campaign" --cache-dir c
expect 2 "$fuzz" --cache-dir c

# Gone with reconnect-and-resume and adaptive unit sizing: a dropped link
# requeues like a dead worker, and units have one fixed size.
expect 2 "$campaign" --connect 127.0.0.1:1 --worker-id w1
expect 2 "$campaign" --connect 127.0.0.1:1 --reconnect 10
expect 2 "$fuzz" --connect 127.0.0.1:1 --reconnect-delay-ms 20
expect 2 "$campaign" --workers 2 --target-unit-ms 20
expect 2 "$fuzz" --workers 2 --unit-size auto

# One fleet role at a time; the traffic load spec never crosses the wire.
expect 2 "$campaign" --workers 2 --connect h:1
expect 2 "$campaign" --serve 47000 --workers 2
expect 2 "$fuzz" --workers 2 --connect h:1
expect 2 "$campaign" --workers 2 --traffic rate=1000,conns=2,seed=1
expect 2 "$campaign" --connect 127.0.0.1:1 --traffic rate=1000,conns=2,seed=1
expect 2 "$campaign" --workers 2 --figures

exit $status
