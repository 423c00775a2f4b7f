"""Starts processes for run.py and measures each one with os.wait4.

It runs as its own small process because on Linux a child's max RSS, as
wait4 reports it, starts from the memory of the process that spawned it.
Spawning the stages straight from run.py, which holds the generated inputs
and their expected results, would inflate every stage's peak RSS.

Protocol: one JSON request per line on stdin, ``{"argv", "env", "stdout",
"stderr", "timeout_s"}``; one JSON reply per line on stdout, ``{"exit_code",
"wall_s", "cpu_s", "rss_mb"}``. The child's stdout and stderr go to the named
files, never to pipes: a child writing megabytes into a pipe that nobody
reads until it exits would never exit. A child still running after
``timeout_s`` is killed. End of stdin ends the launcher.
"""

import json
import os
import signal
import sys
import threading
import time


def run(argv, env, stdout, stderr, timeout_s):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_CLOSE, 0),
               (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    timer = threading.Timer(timeout_s, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    return {"exit_code": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


def main():
    for line in sys.stdin:
        reply = run(**json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
