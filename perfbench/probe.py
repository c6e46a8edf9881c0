"""Set-up probe: interpreter start, ``import steklovw`` and input generation.

``run.py`` times this script in a fresh interpreter several times and
reports the median as ``setup_s``.  Usage: probe.py WORKLOAD SEED WORKDIR
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports steklovw)

name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
work.mkdir(parents=True, exist_ok=True)
workloads.WORKLOADS[name](seed, work)
