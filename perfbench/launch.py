"""Start benchmark requests from a process that holds almost no memory.

On Linux a process's ru_maxrss also counts the peak memory of the process
that spawned it (the spawner's address space is recorded when the child
execs).  run.py holds numpy and whole outputs, so it does not spawn requests
itself: it starts this helper, which imports only the standard library, once
per run, and sends it one JSON line per request:

    {"cmd": [...], "env": {...}, "stdout": path, "stderr": path, "timeout": s,
     "calibrate": units}

Before it starts the request, the helper times `units` runs of a fixed
pure-Python loop (the calibration unit) on its own CPU, which the request
then runs on too.  It answers with one JSON line:

    {"rc": exit code, "wall": s, "cpu": s, "rss_mb": MB, "t_spawn": perf_counter,
     "cal_s": seconds the calibration units took}

Requests run in the helper's working directory.  It exits when its standard
input closes.
"""

import json
import os
import signal
import sys
import threading
import time

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def kill(pidfd: int):
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    except ProcessLookupError:
        pass


def calibration_unit():
    """A fixed amount of interpreter work: about 5-8 ms on a 2 GHz Xeon."""
    total = 0
    for i in range(100_000):
        total += i * i
    return total


def calibrate(units: int) -> float:
    t0 = time.perf_counter()
    for _ in range(units):
        calibration_unit()
    return time.perf_counter() - t0


def run(req: dict) -> dict:
    cal_s = calibrate(req["calibrate"])
    actions = [(os.POSIX_SPAWN_OPEN, 1, req["stdout"], FLAGS, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, req["stderr"], FLAGS, 0o644)]
    t_spawn = time.perf_counter()
    pid = os.posix_spawn(req["cmd"][0], req["cmd"], req["env"], file_actions=actions)
    pidfd = os.pidfd_open(pid)
    timer = threading.Timer(req["timeout"], kill, (pidfd,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t_spawn
    except BaseException:
        kill(pidfd)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
        timer.join()
        os.close(pidfd)
    return {
        "rc": os.waitstatus_to_exitcode(status),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "t_spawn": t_spawn,
        "cal_s": cal_s,
    }


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
