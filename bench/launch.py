"""Run one command; print its wall time, peak resident set and exit code.

    python3 bench/launch.py OUT_FILE COMMAND [ARG...]

The command's stdout goes to OUT_FILE.  The peak resident set that wait4
reports for a child is never below the peak of the process that started it,
so this launcher imports nothing beyond os, sys and time and stays smaller
than any command it measures.  The wall time runs from the spawn until the
command, and every child it waited for, has exited.
"""

import os
import sys
import time

out_path, argv = sys.argv[1], sys.argv[2:]
fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
t0 = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1)])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
os.close(fd)
print(wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
