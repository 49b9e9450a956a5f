"""Spawns and times the benchmark's child processes, one at a time.

Reads one request per stdin line: NUL-separated stdout path, stderr path and
the child's argv.  Answers one stdout line per request:

    exit_code start end ru_maxrss_kib

start and end are time.monotonic() readings just before the spawn and just
after os.wait4 reaped the child.  This process imports nothing beyond the interpreter's start-up modules and
stays small on purpose: on Linux a child's ru_maxrss starts from the
resident high-water mark of the process that spawned it, so spawning from
the benchmark itself, which holds sympy and the oracles, would put a floor
of its own size under every peak_rss_mb reading.
"""

import os
import sys
import time

def main() -> None:
    for line in sys.stdin:
        out, err, *argv = line.rstrip("\n").split("\0")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        fds = [os.open(out, flags, 0o644), os.open(err, flags, 0o644)]
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, fds[0], 1),
            (os.POSIX_SPAWN_DUP2, fds[1], 2),
        ]
        try:
            start = time.monotonic()
            pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
            _, status, usage = os.wait4(pid, 0)
            end = time.monotonic()
        finally:
            for fd in fds:
                os.close(fd)
        print(os.waitstatus_to_exitcode(status), repr(start), repr(end), usage.ru_maxrss, flush=True)


if __name__ == "__main__":
    main()
