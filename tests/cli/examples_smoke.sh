#!/bin/sh
# Runs each example binary given on the command line; every one must exit 0.
#
#   examples_smoke.sh EXAMPLE...

status=0
for example in "$@"; do
  "$example" > /dev/null
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: exit $rc: $example"
    status=1
  fi
done
exit $status
