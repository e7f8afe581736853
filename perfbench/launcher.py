"""A small process that starts the benchmark's child processes for it.

``posix_spawn`` and ``fork`` + ``exec`` hand the parent's high-water RSS to
the child: at ``execve`` the kernel copies the old address space's peak into
the new program's ``ru_maxrss``. A child started from the harness, after it
has loaded numpy and checked large outputs, would report at least the
harness's peak. The launcher is forked before the harness imports anything
large, so the floor it passes on is a bare interpreter's.

The harness sends one JSON line per command; the launcher spawns it, waits
for it with ``wait4`` and answers with its exit code, wall seconds and peak
RSS. It exits when the harness closes its end of the pipe.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import time


def _serve(requests, replies):
    for line in requests:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *req["args"]], req["env"],
                             file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
        replies.write(json.dumps([os.waitstatus_to_exitcode(status), seconds,
                                  usage.ru_maxrss / 1024.0]) + "\n")
        replies.flush()


class Launcher:
    """Handle on the forked launcher; ``run`` blocks until the command ends."""

    def __init__(self):
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(req_w)
            os.close(rep_r)
            code = 0
            try:
                with os.fdopen(req_r, encoding="utf-8") as requests, \
                        os.fdopen(rep_w, "w", encoding="utf-8") as replies:
                    _serve(requests, replies)
            except BaseException:  # the harness sees a closed pipe and raises
                code = 1
            os._exit(code)
        os.close(req_r)
        os.close(rep_w)
        self.pid = pid
        self._requests = os.fdopen(req_w, "w", encoding="utf-8")
        self._replies = os.fdopen(rep_r, encoding="utf-8")
        atexit.register(self.close)

    def run(self, args: list[str], stdout: str, stderr: str, env: dict) -> tuple[int, float, float]:
        """Run the interpreter with ``args``: (exit code, wall seconds, peak RSS in MB)."""
        self._requests.write(json.dumps({"args": args, "stdout": stdout, "stderr": stderr,
                                         "env": env}) + "\n")
        self._requests.flush()
        reply = self._replies.readline()
        if not reply:
            raise RuntimeError("the launcher process ended")
        code, seconds, rss_mb = json.loads(reply)
        return code, seconds, rss_mb

    def close(self):
        if self.pid is None:
            return
        self._requests.close()
        self._replies.close()
        os.waitpid(self.pid, 0)
        self.pid = None
