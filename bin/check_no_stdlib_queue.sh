#!/bin/sh
# Usage: check_no_stdlib_queue.sh FILE.ml...
#
# Fails if any FILE names Stdlib's Queue: a bare `Queue` module path
# (`Queue.push`, `'a Queue.t`, `open Queue`) or `Stdlib.Queue`. The
# simulator's queues live for the whole run and are rarely empty, and
# Stdlib.Queue links each cell from the previous tail, so every minor
# collection promotes the cells and packets behind a promoted tail;
# Dcsim.Fifo is the queue to use. A match inside a comment counts too.

hits=$(grep -nE "(^|[^A-Za-z0-9_'.])Queue([^A-Za-z0-9_']|$)|Stdlib\.Queue" "$@")
if [ -n "$hits" ]; then
  echo "$hits"
  echo "lib/ must not use Stdlib.Queue: use Dcsim.Fifo (lib/dcsim/fifo.mli says why)."
  exit 1
fi
