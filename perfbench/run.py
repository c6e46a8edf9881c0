"""Benchmark for steklovw: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cli-batch --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 0 [--trace 1]

One process runs one workload as a closed loop with one client: it repeats
passes over the seeded items until the next pass would overrun
``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports per-layer
metrics.  Times are scaled to a reference machine speed read during the run
(``speed_factor``).  The last stdout line is the
JSON result; the line before it is a ``{"detail": ...}`` object with the
environment stamp, failures, diagnostics and trace self-check.
``--workload all`` runs every workload in its own process and prints each
metric by name with its unit.  See WORKLOADS.md for why each workload exists.
"""
from __future__ import annotations

import os

# Pin BLAS threads before numpy loads; probes and child runs inherit this.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOAD_NAMES = ("cli-batch", "fine-mesh", "radial-suite")
# Fixed tail percentile per workload, so runs that fit a different number of
# passes stay comparable.  At the seed each has >= 10 items beyond it, except
# fine-mesh: four slow reports a pass leave too few items, so its tail (None)
# is the slowest item, taken as its median over the passes.
TAIL_PCT = {"cli-batch": 80, "fine-mesh": None, "radial-suite": 90}
SETUP_PROBES = 3
REPORT_HOOKS = [("steklovw.verify", n) for n in
                ("brock_report", "question_a_report", "proof_chain_check")]
CHILD_TIMEOUT_S = 170
# Median time of ``speed_sample`` on the 2-core x86-64 box the benchmark was
# defined on; times are reported at that speed (see ``speed_factor``).
SPEED_REF_S = 2.5e-3
# Speed samples at each item boundary and before each DtN reduction and
# eigensolve (PROBE_HOOKS), about 3-5% of a pass on every workload.  The
# hooks give fine-mesh, whose items take seconds, more than two instants an
# item at which the machine is read.
SPEED_SAMPLES = {"cli-batch": 1, "fine-mesh": 2, "radial-suite": 1}
PROBE_HOOKS = [("steklovw.steklov2d", "dtn_reduce"),
               ("steklovw.steklov2d", "solve_spectrum")]


def _tail(item_times, per_pass: int, pct):
    """Item-time percentile ``pct``, or for None the slowest item's median
    over the passes (the slowest time when a pass lost items)."""
    if pct is not None:
        return _percentile(item_times, pct)
    if len(item_times) % per_pass:
        return max(item_times)
    passes = [item_times[i:i + per_pass]
              for i in range(0, len(item_times), per_pass)]
    return max(statistics.median(times) for times in zip(*passes))


def _percentile(values, pct):
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def _git_commit():
    """HEAD of a git checkout, read from .git without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "steklovw").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"git_commit": _git_commit(), "source_sha256": _source_sha256(),
            "seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "blas": blas,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def speed_sample() -> None:
    """A fixed piece of pure-Python work that reads the machine's speed."""
    s = 0
    for i in range(30000):
        s += i * i % 7


def speed_factor(samples: list[float]) -> float:
    """Reference over measured speed-sample time: raw times x this factor.

    On a shared host other tenants slow whole minutes of a run by up to a
    half.  Much of that slowdown hits a fixed pure-Python loop as it hits
    the workload, so the loop, timed many times through the run (see
    ``SPEED_SAMPLES``), reads it, and multiplying by this factor reports
    times at the reference speed.  The loop is benchmark code: a change to
    the program moves the times and leaves the factor alone.
    """
    return SPEED_REF_S / statistics.median(samples) if samples else 1.0


def timed_speed_samples(count: int) -> list[float]:
    out = []
    for _ in range(count):
        t0 = perf_counter()
        speed_sample()
        out.append(perf_counter() - t0)
    return out


def setup_time(name: str, seed: int, work: Path) -> tuple[float, list[float]]:
    """Wall time of a fresh interpreter importing steklovw and making inputs,
    and speed samples taken just before it."""
    samples = timed_speed_samples(5)
    t0 = perf_counter()
    subprocess.run([sys.executable, str(HERE / "probe.py"), name, str(seed),
                    str(work)], check=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0, samples


def run_passes(wl, rec, seconds: float, trace: bool, set_tracing, new_diag,
               probe):
    """Passes until the next one would end after ``seconds``.

    Without tracing every pass is untraced (at least one).  With tracing,
    passes alternate untraced/traced, starting untraced, so that warm-up and
    machine drift do not all land on one side of the overhead (at least one
    of each).  Returns {traced: (walls, passes, warnings)}.  ``probe`` takes
    the speed samples, in untraced passes only so that they never land
    inside a span; pass walls leave its time out.
    """
    runs = {False: ([], [], new_diag()), True: ([], [], new_diag())}
    start = perf_counter()
    count = 0
    while True:
        traced = trace and count % 2 == 1
        set_tracing(traced)
        rec.speed_probe = None if traced else probe
        walls, passes, diag = runs[traced]
        probed = rec.probe_s
        t0 = perf_counter()
        passes.append(wl.run_pass(rec, diag, count))
        t1 = perf_counter()
        walls.append(t1 - t0 - (rec.probe_s - probed))
        count += 1
        if (t1 - start) + (t1 - t0) > seconds and (count >= 2 or not trace):
            set_tracing(False)
            return runs


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path):
    sys.path.insert(0, str(SRC))
    setup = [] if trace else [setup_time(name, seed, work / f"probe{i}")
                              for i in range(SETUP_PROBES)]
    setup_factor = speed_factor([x for _, xs in setup for x in xs])
    import checks
    import tracer
    import workloads

    wl = workloads.WORKLOADS[name](seed, work)
    reference = checks.load_reference(name, seed)
    rec = tracer.Recorder()

    def set_tracing(on: bool) -> None:
        rec.uninstall()
        if on:
            rec.install_spans()
        if name == "cli-batch":   # report hooks go outside the spans
            rec.hook_items(REPORT_HOOKS)
        rec.hook_probes(PROBE_HOOKS)

    runs = run_passes(wl, rec, seconds, trace, set_tracing, workloads.Warnings,
                      functools.partial(timed_speed_samples, SPEED_SAMPLES[name]))
    walls, passes, _ = runs[False]
    traced_walls, traced_passes, _ = runs[True]
    diag = runs[trace][2]
    untraced = json.dumps(passes[0], sort_keys=True)
    identical = all(json.dumps(p, sort_keys=True) == untraced
                    for p in traced_passes)
    factor = speed_factor(rec.speed_samples)
    detail = {"workload": name, "trace": int(trace), "env": environment(seed),
              "speed_factor": factor, "speed_samples": len(rec.speed_samples)}

    all_passes = passes + traced_passes
    failures = [msgs for p in all_passes
                for msgs in checks.check_pass(name, p, reference)]
    attempted = len(failures)
    failed = sum(1 for msgs in failures if msgs)
    summary = checks.summary(all_passes[-1])
    detail.update({
        "passes": len(passes), "traced_passes": len(traced_passes),
        "items_per_pass": wl.items_per_pass, "reference_checked": reference is not None,
        "fail_frac": failed / attempted,
        "failures": sorted({m for msgs in failures for m in msgs})[:10],
        **summary,
        "warnings": {"radial.identity_warnings": diag.identity,
                     "verify.nonmonotone_warnings": diag.nonmonotone,
                     "other": diag.other},
    })
    correct = failed == 0 and identical

    if not trace:
        item_times = rec.items
        pct = TAIL_PCT[name]
        tail = _tail(item_times, wl.items_per_pass, pct)
        detail["item_s_tail"] = {
            "percentile": pct if pct is not None else "slowest item, median",
            "items": len(item_times),
            "items_beyond": sum(1 for t in item_times if t > tail)}
        raw = {"wall_s": statistics.median(walls),
               "item_s_p50": statistics.median(item_times),
               "item_s_tail": tail,
               "setup_s": statistics.median(t for t, _ in setup)}
        detail["raw_s"] = raw
        detail["setup_speed_factor"] = setup_factor
        metrics = {k: (v * (setup_factor if k == "setup_s" else factor), "s")
                   for k, v in raw.items()}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                  / 1024.0, "MB")
        return correct, attempted, failed, metrics, detail

    n = len(traced_passes)
    layers = tracer.layer_metrics(rec.spans, n)
    layers["cli.bytes_written"] = wl.bytes_written / (n + len(passes))
    layers["radial.identity_warnings"] = diag.identity / n
    layers["verify.nonmonotone_warnings"] = diag.nonmonotone / n
    layers["radial.identity_discrepancy_max"] = summary["identity_discrepancy_max"]
    layers["trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    metrics = {k: (v * factor if _unit(k) == "s" else v, _unit(k))
               for k, v in layers.items()}

    spans_file = WORK / f"trace-{name}-seed{seed}.jsonl"
    rec.write_spans(spans_file)
    detail.update({
        "spans_file": str(spans_file.relative_to(ROOT)),
        "traced_outputs_identical": identical,
        "absent_spans": rec.absent,
        "silent_spans": tracer.silent_spans(rec.spans, name, rec.absent),
        "size_errors": sorted(rec.size_errors),
        "shape": shape_checks(name, wl, rec, layers),
    })
    return correct, attempted, failed, metrics, detail


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_max") or metric.endswith("bytes_written"):
        return "bytes"
    if metric.endswith("discrepancy_max"):
        return "ratio"
    return "count"


def _group_times(layers: dict) -> dict:
    groups: dict[str, float] = {}
    for metric, value in layers.items():
        if metric.endswith("_s") and "." in metric:
            group = metric.split(".")[0]
            groups[group] = groups.get(group, 0.0) + value
    return groups


def shape_checks(name: str, wl, rec, layers: dict) -> dict:
    """The layer breakdown the benchmark predicts for each workload."""
    import tracer
    if name == "cli-batch":
        return {"mesh_builds_per_report":
                layers["mesh2d.builds"] / max(layers["verify.reports"], 1e-300)}
    if name == "radial-suite":
        fem = sum(1 for s in rec.spans
                  if s[0].split(".")[0] in ("steklov2d", "axisym3d", "mesh2d"))
        groups = _group_times(layers)
        return {"fem_spans": fem, "largest_layer": max(groups, key=groups.get)}
    # library items are numbered pass after pass, so position = id % size
    planar = {i for i in range(rec.next_id)
              if wl.specs[i % wl.items_per_pass]["space"] in ("E2", "H2")}
    times = {k: v for k, v in tracer.layer_metrics(rec.spans, 1, items=planar).items()
             if k.endswith("_s")}
    return {"largest_layer_on_planar_items": max(times, key=times.get)}


def run_one(args) -> int:
    if not (SRC / "steklovw" / "__init__.py").is_file():
        print(f"error: no steklovw package under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        correct, attempted, failed, metrics, detail = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# every workload, one process each
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}")
            ok = False
            continue
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        print(f"== {name} (seed {args.seed}, trace {args.trace}): correct "
              f"{result['correct']}, {result['failed']}/{result['attempted']} "
              f"items failed, statuses {detail['statuses']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:.6g} {m['unit']}")
        print(f"  {'fail_frac':34s} {detail['fail_frac']:.6g} ratio")
        for msg in detail["failures"]:
            print(f"  failure: {msg}")
        ok &= result["correct"]
        if args.trace:
            # self-check: traced outputs equal untraced ones (in `correct`),
            # and every span the workload is expected to fire did fire
            print(f"  shape: {detail['shape']}")
            if detail["silent_spans"] or detail["absent_spans"]:
                print(f"  silent spans: {detail['silent_spans']}; "
                      f"absent: {detail['absent_spans']}")
            ok &= not detail["silent_spans"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
