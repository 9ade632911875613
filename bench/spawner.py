"""Runs the benchmark's child processes and reports each one's wall time and peak RSS.

A child's ``ru_maxrss`` starts from the resident size of the process that
forked it, so the harness, which holds the generated inputs in memory, would
inflate every child's figure. The harness therefore starts this small process
first and sends it one JSON request per line::

    {"argv": [...], "cwd": "...", "stdout": "...", "stderr": "...", "timeout": 60}

and reads back one JSON line per request::

    {"status": <exit code>, "wall_s": <seconds>, "maxrss_kb": <kilobytes>}

A child still running after ``timeout`` seconds is killed. The process exits
when its standard input closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "w") as out, open(request["stderr"], "w") as err:
        started = time.perf_counter()
        child = subprocess.Popen(request["argv"], stdout=out, stderr=err, cwd=request["cwd"])
        killer = threading.Timer(request["timeout"], child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"status": child.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
