#!/usr/bin/env python
"""Run the full-scale paper-claims suite and record it.

Runs ``REPRO_FULL=1 pytest benchmarks --benchmark-only`` (all four
Table 1 sessions, unsampled sweep traces, the full 0-60 K overhead
curve) in a child process and writes its output to
``bench_output_full_scale.txt``, headed by the run's wall time and the
child's peak RSS.  Exits with the suite's status.

Run from a checkout: ``python tools/full_scale.py``.
"""

import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = [sys.executable, "-m", "pytest", "benchmarks",
           "--ignore=benchmarks/e2e", "--benchmark-only", "-q", "-s",
           "-p", "no:cacheprovider"]


def main() -> int:
    env = dict(os.environ, REPRO_FULL="1", PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run(COMMAND, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux: the largest of the waited-for
    # descendants (the pytest process or a sweep pool worker).
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    header = (f"# REPRO_FULL=1 pytest benchmarks --benchmark-only "
              f"(python tools/full_scale.py)\n"
              f"# wall time {wall:.0f} s, peak RSS {peak_mb:.0f} MB, "
              f"{os.cpu_count()} CPUs, {platform.machine()}, "
              f"Python {platform.python_version()}, exit {proc.returncode}\n")
    (ROOT / "bench_output_full_scale.txt").write_text(header + proc.stdout)
    sys.stdout.write(header)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
