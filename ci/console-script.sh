#!/bin/sh
# The seqproof command runs: its help and one experiment.
#
#   ci/console-script.sh seqproof                # the installed console script
#   ci/console-script.sh python -m seqproof.cli  # the module
set -eu
"$@" --help
"$@" exp min-vars --steps 65536
