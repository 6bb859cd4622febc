"""Run one command; print its wall time, CPU time and peak RSS as JSON.

    python3 perfbench/measure.py TIMEOUT_S command...

The figures cover the command and every child it waited for (its pool
workers).  Linux starts a child's peak-RSS figure from the resident size of
the process that spawned it, so the benchmark, whose own memory grows
while it checks outputs, spawns every command through this small process.
The clock starts after this process has started, just before the spawn.
A command still running after TIMEOUT_S is killed with its process group.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2:
        print("usage: measure.py TIMEOUT_S command...", file=sys.stderr)
        return 2
    timeout, command = float(argv[0]), argv[1:]
    t0 = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    killer = threading.Timer(timeout, _kill_group, (proc.pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall,
                      "cpu_s": usage.ru_utime + usage.ru_stime,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0,
                      "exit_code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
