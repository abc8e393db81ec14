"""Run one command; write its wall time, exit code and peak RSS as JSON.

Usage: ``python3 -S launch.py RESULT.json COMMAND [ARGS...]``

The driver starts every request through this small process instead of
directly.  On Linux the ``ru_maxrss`` of a child also counts the process
image it replaced at ``exec``, which for a direct child is the driver with
its numpy, checks and traces; started from here, it counts this
interpreter's few megabytes instead.  The ``wait4`` rusage covers the
command and every child it reaped, so a pool's workers are included.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    result, *command = sys.argv[1:]
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result, "w") as fh:
        json.dump({"wall": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
