"""Starts the benchmark's child processes from a small process.

A child's ``ru_maxrss`` includes the peak RSS of the address space it
replaced at exec. Python starts children with vfork, so that address space
is the spawning process's own: spawned straight from the benchmark, which
holds the generated corpus, every child would report at least the
benchmark's peak. Spawned from this process, which imports nothing heavy,
the floor is a bare interpreter's few MB.

Protocol, one JSON object per line: the benchmark writes
``{"argv": [...], "cwd": ..., "log": ...}`` on standard input; this process
runs the command to completion with stdout and stderr to ``log`` and
answers ``{"seconds": ..., "maxrss_kib": ..., "exit_code": ...}``.
It exits when its standard input closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"seconds": seconds,
                                     "maxrss_kib": usage.ru_maxrss,
                                     "exit_code": proc.returncode}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
