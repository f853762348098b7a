"""Start, time and reap child processes on behalf of run.py.

    python3 perfbench/launcher.py

Reads one JSON request per line on standard input:
``{"cmd": [...], "cwd": DIR, "env": {...}, "stdout": FILE, "stderr": FILE, "timeout": S}``
and answers each with one JSON line: the child's wall time from launch to
exit, its peak RSS and its exit code.  It ends when standard input closes.

Linux folds the spawning process's peak RSS into a child's ``ru_maxrss``
at exec, so a child started by the benchmark process itself, which holds the
generated inputs, would report the benchmark's peak instead of its own.  This
process stays small, so the peak that ``wait4`` reports is the child's.
"""
import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            request["cmd"], stdout=out, stderr=err, cwd=request["cwd"], env=request["env"]
        )
        watchdog = threading.Timer(request["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "returncode": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
