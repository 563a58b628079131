#!/bin/sh
# Usage: check_bad_options.sh FASTRAK_SIM
#
# Runs `FASTRAK_SIM run` with float option values that are not a valid
# simulated run: non-finite, out of range, or too large for Simtime.
# Each must be refused before anything runs: exit status 1, nothing on
# stdout and exactly one line on stderr. A value that slips through
# hangs or runs an experiment instead, so each case gets a 10 s timeout.
# Exits 1 after listing every case that was not refused. A negative
# value is passed as --opt=-X, because cmdliner reads "--opt -X" as
# an unknown option -X and exits 124.

# A bare file name would be looked up on PATH.
case $1 in */*) sim=$1 ;; *) sim=./$1 ;; esac
tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
failed=0

refused() {
  timeout 10 "$sim" run "$@" >"$tmp/out" 2>"$tmp/err"
  code=$?
  if [ "$code" -ne 1 ] || [ -s "$tmp/out" ] || [ "$(wc -l <"$tmp/err")" -ne 1 ]; then
    echo "not refused: run $* (exit $code, $(wc -c <"$tmp/out") stdout bytes, $(wc -l <"$tmp/err") stderr lines)"
    failed=1
  fi
}

refused table4 --scale 0
refused table4 --scale nan
refused table4 --scale inf
refused table4 --scale=-0.5
refused table4 --scale 1e-7
refused table4 --scale 2
refused soak --duration 0
refused soak --duration inf
refused soak --duration nan
refused soak --duration 1e12
refused soak --duration 1e-12
refused soak --churn-rate=-1
refused soak --churn-rate nan
refused soak --churn-rate inf
refused soak --churn-rate 1e-12
refused soak --churn-rate 1e10

exit $failed
