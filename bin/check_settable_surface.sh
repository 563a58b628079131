#!/bin/sh
# Usage: check_settable_surface.sh FILE.mli...
#
# Counts the values a caller can set through the library interfaces:
# every distinct optional argument (`?name:`) of a `val`, plus every
# field of the `config`, `vm_spec` and `vswitch_config` records and of
# lib/core/config.mli's `type t`. Prints the count and fails unless it
# equals `expected` below. A knob that no caller sets is a constant,
# not an option, so a change that adds or removes an optional argument
# or a config field updates `expected` in the same diff. From the repo
# root: sh bin/check_settable_surface.sh lib/*/*.mli

expected=125

opts=$(awk '/^val / {n=$2} /\?[a-z_][a-z0-9_]*:/ {s=$0; while (match(s, /\?[a-z_][a-z0-9_]*:/)) {print FILENAME, n, substr(s, RSTART, RLENGTH); s=substr(s, RSTART+RLENGTH)}}' "$@" | sort -u | wc -l)
fields=$(awk 'FNR==1 {on=0} /^ *type (config|vm_spec|vswitch_config) = \{/ || (FILENAME ~ /(^|\/)lib\/core\/config\.mli$/ && /^type t = \{/) {on=1; next} on && /^ *\}/ {on=0} on && /^ *(mutable )?[a-z_][a-z0-9_]* :/ {c++} END {print c+0}' "$@")
total=$((opts + fields))
echo "settable surface: optional args $opts + config fields $fields = $total"
if [ "$total" -ne "$expected" ]; then
  echo "expected $expected. Give a new optional argument or config field a caller that sets it, and update expected in bin/check_settable_surface.sh in the same change."
  exit 1
fi
