"""Seeded inputs and item runners for the three benchmark workloads.

Every workload is a closed loop with one client: a pass runs the items of
the workload one after another, as a user at the CLI or in a notebook does.
Inputs come only from the seed.  The library receives generated objects and
the CLI receives generated config files, so nothing seed-related reaches the
program itself.

Each pass returns one JSON-like record per item.  The records hold outputs
only (never timings), so two passes over the same inputs must return equal
records; ``checks.py`` compares them against invariants and the reference.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import warnings
from pathlib import Path

import numpy as np
from scipy.integrate import cumulative_trapezoid

import steklovw as sw
import steklovw.cli

E2 = sw.SpaceForm(sw.Curvature.EUCLIDEAN, 2)
E3 = sw.SpaceForm(sw.Curvature.EUCLIDEAN, 3)
H2 = sw.SpaceForm(sw.Curvature.HYPERBOLIC, 2)
H3 = sw.SpaceForm(sw.Curvature.HYPERBOLIC, 3)

# Standard weight families of the verification harness (fixed, not seeded).
EUCLIDEAN_WEIGHTS = [("constant", {}), ("linear", {"a": 0.5}),
                     ("quadratic", {"a": 1.0, "b": 0.25})]
CHAIN_WEIGHTS = EUCLIDEAN_WEIGHTS[:2]
OFFSET = 0.3       # the offset disk of the standard Euclidean sweep

LEVELS_CLI = 3     # 8x64 mesh, 3 levels: the CLI default
LEVELS_FINE = 4    # one more level: ~33k vertices, 512 boundary nodes


def _weight(kind: str, params: dict):
    return getattr(sw.RadialWeight, kind)(**params)


class Warnings:
    """Counts the RuntimeWarnings the library emits instead of filtering them."""

    def __init__(self):
        self.identity = 0
        self.nonmonotone = 0
        self.other = 0

    def __enter__(self):
        self._ctx = warnings.catch_warnings(record=True)
        self._log = self._ctx.__enter__()
        warnings.simplefilter("always")
        return self

    def __exit__(self, *exc):
        self._ctx.__exit__(*exc)
        for w in self._log:
            text = str(w.message)
            if "identity discrepancy" in text:
                self.identity += 1
            elif "non-monotone convergence" in text:
                self.nonmonotone += 1
            else:
                self.other += 1
        return False


# ---------------------------------------------------------------------------
# cli-batch: in-process `steklovw.cli.main` on a sweep and a chain config
# ---------------------------------------------------------------------------

def _cfg_value(v) -> str:
    if isinstance(v, (list, tuple)):
        if v and isinstance(v[0], (list, tuple)):
            return "; ".join(f"{x!r} {y!r}" for x, y in v)
        return ", ".join(repr(x) for x in v)
    return repr(v) if isinstance(v, float) else str(v)


def _config_text(command: str, weights, domains) -> str:
    # No jobs/seed keys and no [tolerances] section: the CLI defaults apply.
    lines = [f"command = {command}", "", "[space]", "curvature = euclidean",
             "dim = 2", ""]
    for kind, params in weights:
        lines += ["[weight]", f"kind = {kind}"]
        lines += [f"{k} = {_cfg_value(v)}" for k, v in params.items()] + [""]
    for kind, params in domains:
        lines += ["[domain]", f"kind = {kind}"]
        lines += [f"{k} = {_cfg_value(v)}" for k, v in params.items()] + [""]
    lines += ["[mesh]", "rings = 8", "sectors = 64", f"levels = {LEVELS_CLI}"]
    return "\n".join(lines) + "\n"


def _area_pi_ellipse(rng) -> tuple[str, dict]:
    ratio = float(rng.uniform(1.0, 2.0))
    return "ellipse", {"a": math.sqrt(ratio), "b": 1.0 / math.sqrt(ratio)}


def cli_batch_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    k = int(rng.choice([2, 3, 5]))
    sweep_domains = [
        ("disk", {"radius": 1.0}),                       # equality case
        ("disk", {"radius": 1.0, "center": (OFFSET, 0.0)}),
        _area_pi_ellipse(rng),
        ("perturbed_disk", {"radius": 1.0, "epsilon": float(rng.uniform(
            0.05, 0.2 if k < 5 else 0.15)), "k": k}),
    ]
    half_w = float(rng.uniform(1.0, 1.3))
    half_h = math.pi / (4.0 * half_w)
    chain_domains = [
        _area_pi_ellipse(rng),
        ("perturbed_disk", {"radius": 1.0, "epsilon": float(rng.uniform(
            0.03, 0.1)), "k": int(rng.choice([2, 4]))}),
        ("polygon", {"vertices": [(half_w, -half_h), (half_w, half_h),
                                  (-half_w, half_h), (-half_w, -half_h)]}),
    ]
    sweep = []
    for kind, params in sweep_domains:
        for wkind, _ in EUCLIDEAN_WEIGHTS:
            offset = "center" in params
            sweep.append({
                "centred_disk": kind == "disk" and not offset,
                "constant_weight": wkind == "constant",
                # the reported finding: the offset disk violates the
                # comparison under every non-constant admissible weight
                "expect": "violation" if offset and wkind != "constant"
                else "pass"})
    return {
        "sweep": _config_text("sweep", EUCLIDEAN_WEIGHTS, sweep_domains),
        "chain": _config_text("chain", CHAIN_WEIGHTS, chain_domains),
        "sweep_items": sweep,
        "chain_items": [{"constant_weight": wkind == "constant"}
                        for _ in chain_domains for wkind, _ in CHAIN_WEIGHTS],
    }


def _csv_rows(path: Path) -> list[dict]:
    # The "# config:" header embeds every tolerance knob; only data rows count.
    with open(path, newline="") as fh:
        body = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(body))


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class CliBatch:
    name = "cli-batch"

    def __init__(self, seed: int, work: Path):
        self.inputs = cli_batch_inputs(seed)
        self.work = work
        self.configs = {}
        for command in ("sweep", "chain"):
            path = work / f"{command}.cfg"
            path.write_text(self.inputs[command])
            self.configs[command] = path
        self.items_per_pass = (len(self.inputs["sweep_items"])
                               + len(self.inputs["chain_items"]))
        self.bytes_written = 0

    def _call(self, command: str, out: Path, diag: Warnings, rec) -> int | str:
        sink = io.StringIO()
        rec.call_begin()
        try:
            with diag, contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = steklovw.cli.main(["--config", str(self.configs[command]),
                                          "--out", str(out)])
        except Exception as exc:   # a raising call fails all its items
            code = repr(exc)
        finally:
            rec.call_end()
        self.bytes_written += _dir_bytes(out)
        return code

    @staticmethod
    def _outputs(command: str, out: Path) -> tuple[list, list]:
        """CSV data rows and JSON reports, or what could be read of them."""
        try:
            rows = _csv_rows(out / f"{command}.csv")
            if command == "sweep":
                reports = [json.loads(p.read_text())["report"]
                           for p in sorted(out.glob("sweep_*.json"))]
            else:
                reports = json.loads((out / "chain.json").read_text())["reports"]
        except (OSError, ValueError, KeyError):
            return [], []
        return rows, reports

    def run_pass(self, rec, diag: Warnings, index: int) -> list[dict]:
        records = []
        for command, items in (("sweep", self.inputs["sweep_items"]),
                               ("chain", self.inputs["chain_items"])):
            out = self.work / f"pass{index}" / command
            code = self._call(command, out, diag, rec)
            rows, reports = self._outputs(command, out)
            for i, spec in enumerate(items):
                rep = reports[i] if i < len(reports) else None
                records.append({
                    "kind": command, "index": i, "exit_code": code,
                    "spec": spec,
                    "row": rows[i] if i < len(rows) else None,
                    "report": None if rep is None else _cli_report_fields(rep),
                })
            shutil.rmtree(out, ignore_errors=True)
        return records


def _cli_report_fields(rep: dict) -> dict:
    keep = ("domain", "weight", "status", "near_equality", "R", "sigma1_ball",
            "identity_discrepancy", "sigma_levels", "links_passed",
            "implication_consistent", "sigma_omega")
    return {k: rep[k] for k in keep if k in rep}


# ---------------------------------------------------------------------------
# fine-mesh: library brock_report at level 4, one weight per domain
# ---------------------------------------------------------------------------

def fine_mesh_inputs(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    items = []
    if rng.uniform() < 0.5:
        kind, params = _area_pi_ellipse(rng)
    else:
        k = int(rng.choice([2, 3]))
        kind, params = "perturbed_disk", {
            "radius": 1.0, "epsilon": float(rng.uniform(0.05, 0.2)), "k": k}
    wkind, wparams = EUCLIDEAN_WEIGHTS[int(rng.integers(3))]
    items.append({"space": "E2", "domain": (kind, params),
                  "weight": (wkind, wparams)})
    # well inside the Poincare-disk margin |x| <= 0.98
    hyp = ("ellipse", {"a": float(rng.uniform(0.45, 0.55)),
                       "b": float(rng.uniform(0.3, 0.4))})
    wkind, wparams = CHAIN_WEIGHTS[int(rng.integers(2))]
    items.append({"space": "H2", "domain": hyp, "weight": (wkind, wparams)})
    for _ in range(2):
        ratio = float(rng.uniform(1.05, 1.5))
        a = ratio ** (1.0 / 3.0)
        wkind, wparams = CHAIN_WEIGHTS[int(rng.integers(2))]
        items.append({"space": "E3", "domain": ("spheroid", {"a": a, "c": a / ratio}),
                      "weight": (wkind, wparams)})
    return items


_SPACES = {"E2": E2, "E3": E3, "H2": H2, "H3": H3}


def _domain(kind: str, params: dict):
    if kind == "spheroid":
        return sw.MeridianDomain.spheroid(params["a"], params["c"])
    if kind == "ellipse":
        return sw.Domain2D.ellipse(params["a"], params["b"])
    return sw.Domain2D.perturbed_disk(params["radius"], params["epsilon"],
                                      params["k"])


class FineMesh:
    name = "fine-mesh"

    def __init__(self, seed: int, work: Path):
        self.specs = fine_mesh_inputs(seed)
        self.items = [(_domain(*s["domain"]), _SPACES[s["space"]],
                       _weight(*s["weight"])) for s in self.specs]
        self.items_per_pass = len(self.items)
        self.bytes_written = 0

    def run_pass(self, rec, diag: Warnings, index: int) -> list[dict]:
        records = []
        for spec, (dom, form, w) in zip(self.specs, self.items):
            head = {"spec": _jsonable(spec)}
            rec.item_begin()
            try:
                with diag:
                    rep = sw.brock_report(dom, form, w, levels=LEVELS_FINE)
                record = {
                    **head, "status": rep.status,
                    "near_equality": bool(rep.near_equality), "R": rep.R,
                    "sigma1_ball": rep.sigma1_ball,
                    "identity_discrepancy": rep.identity_discrepancy,
                    "sigma_levels": [[float(x) for x in row]
                                     for row in rep.sigma_levels],
                    "gap": rep.gap, "slack": rep.slack}
            except Exception as exc:   # a raising item is a failed item
                record = {**head, "error": repr(exc)}
            finally:
                rec.item_end()
            records.append(record)
        return records


def _jsonable(obj):
    return json.loads(json.dumps(obj))


# ---------------------------------------------------------------------------
# radial-suite: criterion-4-style random admissible weights on four spaces
# ---------------------------------------------------------------------------

RADIAL_R = 1.0
MATCH_R0 = 0.8    # target volume: the unweighted ball of this radius


def _unweighted_volume(space: str, r: float) -> float:
    return {"E2": math.pi * r * r,
            "E3": 4.0 / 3.0 * math.pi * r ** 3,
            "H2": 2.0 * math.pi * (math.cosh(r) - 1.0),
            "H3": math.pi * (math.sinh(2.0 * r) - 2.0 * r)}[space]


def _stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws from U(lo, hi), one from each of n equal strata, shuffled.

    Each draw is uniform on [lo, hi] as in criterion 4, but a seed's set of
    weights covers the range evenly, so seeds differ less in total cost.
    """
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


def radial_weights(seed: int) -> list[tuple[str, object]]:
    """Constant weight, five quadratics and four tabulated concave profiles.

    The tabulated profiles are built as the criterion-4 suite builds them:
    phi = -int g with a non-decreasing piecewise-linear slope g >= 0.  On the
    seed code they push the shooting-vs-identity discrepancy above its warning
    tolerance; that is a finding, so they stay in.  Every parameter is drawn
    from the criterion-4 range, stratified across the weights of one seed.
    """
    rng = np.random.default_rng(seed)
    weights = [("constant", sw.RadialWeight.constant(0.0))]
    for a, b in zip(_stratified(rng, 5, 0.0, 2.0), _stratified(rng, 5, 0.0, 1.0)):
        weights.append(("quadratic", sw.RadialWeight.quadratic(float(a), float(b))))
    ts = np.linspace(0.0, 1.25, 641)
    base = _stratified(rng, 4, 0.0, 1.0)
    knots = np.stack([_stratified(rng, 4, 0.1, 1.0) for _ in range(3)], axis=1)
    slopes = np.stack([_stratified(rng, 4, 0.0, 2.0) for _ in range(3)], axis=1)
    for c, ks, ss in zip(base, knots, slopes):
        g = np.full_like(ts, c)
        for knot, slope in zip(ks, ss):
            g = g + slope * np.maximum(ts - knot, 0.0)
        phi = -cumulative_trapezoid(g, ts, initial=0.0)
        weights.append(("tabulated", sw.RadialWeight.tabulated(ts, phi)))
    return weights


class RadialSuite:
    name = "radial-suite"

    def __init__(self, seed: int, work: Path):
        self.items = [(kind, w, space)
                      for kind, w in radial_weights(seed)
                      for space in ("E2", "E3", "H2", "H3")]
        self.targets = {s: _unweighted_volume(s, MATCH_R0)
                        for s in ("E2", "E3", "H2", "H3")}
        self.items_per_pass = len(self.items)
        self.bytes_written = 0

    def run_pass(self, rec, diag: Warnings, index: int) -> list[dict]:
        records = []
        for i, (kind, w, space) in enumerate(self.items):
            form = _SPACES[space]
            head = {"index": i, "weight_kind": kind, "space": space}
            rec.item_begin()
            try:
                with diag:
                    sol = sw.solve_mode(form, w, 1, RADIAL_R)
                    gh = sw.check_gh_monotonicity(sw.compute_gh(sol), tol=1e-8)
                    ball = sw.sigma1_ball(form, w, RADIAL_R)
                    R, match_error = None, None
                    try:
                        R = sw.match_radius(form, w, self.targets[space])
                    except Exception as exc:   # judged by checks.py
                        match_error = type(exc).__name__
                record = {**head, "beta": sol.beta, "gh_passed": bool(gh.passed),
                          "sigma1_ball": ball.value,
                          "identity_discrepancy": ball.rel_discrepancy,
                          "R_match": R, "match_error": match_error}
            except Exception as exc:   # a raising item is a failed item
                record = {**head, "error": repr(exc)}
            finally:
                rec.item_end()
            records.append(record)
        return records


WORKLOADS = {cls.name: cls for cls in (CliBatch, FineMesh, RadialSuite)}
