"""``tpa verify-paper`` with host speed probes interleaved.

Usage (from run.py): paper_cli.py FD

Runs the CLI module as ``python -m tpa.cli verify-paper`` does, with the
same stdout and exit code.  While it runs, SIGALRM fires every
PERIOD_S of wall time and the handler takes one probe in this thread,
between two bytecodes of the suite, so the probes see the same core at
the same moments as the suite.  The probe times are written as a JSON
list to file descriptor FD when the suite ends.
"""

from __future__ import annotations

import json
import os
import runpy
import signal
import sys

from probe import probe

PERIOD_S = 0.05


def main():
    fd = int(sys.argv[1])
    times = []
    signal.signal(signal.SIGALRM, lambda signum, frame: times.append(probe()))
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    sys.argv = ["tpa", "verify-paper"]
    try:
        runpy.run_module("tpa.cli", run_name="__main__", alter_sys=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        with os.fdopen(fd, "w") as fh:
            json.dump(times, fh)


if __name__ == "__main__":
    main()
