"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/make_reference.py

Runs one pass of every workload at the default seed and writes the item
records to ``reference/seed0.json``.  The committed file was recorded from
the initial implementation; regenerate it only when an intended change of
results is reviewed, never to make a failing run pass.
"""
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    out = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(checks.DEFAULT_SEED, Path(tmp))
            records = wl.run_pass(tracer.Recorder(), workloads.Warnings(), 0)
            failures = [m for msgs in checks.check_pass(name, records, None)
                        for m in msgs]
            if failures:
                print(f"{name}: invariants fail, not recording: {failures}",
                      file=sys.stderr)
                return 1
            out[name] = records
    checks.REFERENCE.parent.mkdir(exist_ok=True)
    checks.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
