"""Run one command; write its exit code, wall time and peak RSS as JSON.

Usage: python3 -I -S launch.py REPORT_FILE PROGRAM [ARG ...]

Why a separate launcher: on Linux a child's ``ru_maxrss`` is at least
the RSS of the process that forked it (the pre-exec address space is
counted), so a benchmark process holding a corpus in memory would leak
its own size into every command it times.  This launcher is small and
imports nothing heavy; the command is its direct child, reaped with
``os.wait4`` so the figures are that command's alone.
"""

import json
import os
import sys
import time


def main() -> None:
    report, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit_code": os.waitstatus_to_exitcode(status),
                "wall_s": wall,
                "peak_rss_kib": usage.ru_maxrss,
            },
            fh,
        )


if __name__ == "__main__":
    main()
