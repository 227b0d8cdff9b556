"""Starts the benchmark's child processes and measures each one.

A child's ru_maxrss counts the resident set of the process that forked it, so
children are forked from this small process, not from the benchmark runner,
whose own memory would otherwise set a floor under every reading.

Protocol: one JSON object per line on stdin, {"argv", "limit", "out", "err"};
one JSON object per line on stdout, {"wall", "rss_mb", "code", "timed_out"}.
The child runs in its own session with stdout and stderr sent to the named
files, and is killed with its session after `limit` seconds.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(argv, limit, out_path, err_path):
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL,
                                start_new_session=True)
        waited = {}
        waiter = threading.Thread(
            target=lambda: waited.update(r=os.wait4(proc.pid, 0)))
        waiter.start()
        waiter.join(limit)
        timed_out = waiter.is_alive()
        if timed_out:
            os.killpg(proc.pid, signal.SIGKILL)
            waiter.join()
        wall = time.perf_counter() - t0
    _, status, usage = waited["r"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode, "timed_out": timed_out}


def main():
    for line in sys.stdin:
        job = json.loads(line)
        result = run(job["argv"], job["limit"], job["out"], job["err"])
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
