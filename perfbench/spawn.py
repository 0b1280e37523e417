"""Process launcher for run.py.

Reads one JSON request per line on stdin,

    {"cmd": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}

runs the command with its output in those files, and answers with one line
`{"wall": s, "code": exit code, "maxrss_kb": peak RSS}`.  The kernel counts
into a child's peak RSS the memory of the process that spawned it, so jobs
are spawned from this small process and not from the benchmark itself, whose
memory grows with the outputs it keeps.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # already exited
        pass


def main():
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["cmd"], stdout=out, stderr=err)
            # not proc.kill: its poll() could reap the child before wait4 does
            timer = threading.Timer(request["timeout"], _kill, (proc.pid,))
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
