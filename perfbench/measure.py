"""Closed-loop timing of ``charentropy`` subprocesses.

One client, one child at a time: the next command starts when the last has
exited. Each child is reaped with ``os.wait4`` so its own peak RSS comes
with it; ``RUSAGE_CHILDREN`` would only give the running maximum over all
children. Children are started by ``launcher.py`` (see there for why).
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

PERCENTILES = (50, 75, 90, 95, 99)
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"


@dataclass(frozen=True)
class Child:
    args: list[str]             # charentropy arguments
    seconds: float
    peak_rss_mb: float
    exit_code: int
    log: Path


class Launcher:
    """Runs ``python -m charentropy ARGS`` children, importing the package
    from ``root/src``. Use as a context manager; closing it stops the
    launcher process and waits for it."""

    def __init__(self, root: Path) -> None:
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        self._proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER)], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, args: list[str], cwd: Path, log: Path) -> Child:
        """Run one command to completion; stdout and stderr go to ``log``."""
        request = {"argv": [sys.executable, "-m", "charentropy", *args],
                   "cwd": str(cwd), "log": str(log)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(line)
        # ru_maxrss is in KiB on Linux.
        return Child(args, reply["seconds"], reply["maxrss_kib"] / 1024.0,
                     reply["exit_code"], log)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def summary(values: list[float]) -> dict:
    """Median, sample count, and the highest listed percentile that has at
    least ten samples beyond it (None when there are too few samples)."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n,
           "percentile": None, "percentile_value": None, "values": values}
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            index = max(0, math.ceil(p * n / 100) - 1)  # nearest rank
            out["percentile"] = p
            out["percentile_value"] = ordered[index]
    return out
