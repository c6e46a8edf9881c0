"""Correctness gate behind the benchmark's ``failed`` count.

Every item of every pass is checked against seed-independent invariants.
For the default seed the items are also compared with reference outputs
recorded from the initial implementation (``reference/seed0.json``):

* per-level FEM eigenvalues within 1e-10 relative to sigma_1 on the same mesh;
* radial beta, sigma1_ball and matched radii within 1e-8 relative;
* identical report statuses;
* CSV data rows compared numerically, never the ``# config:`` header.

Each check returns a list of failure messages; an empty list is a pass.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

DEFAULT_SEED = 0
REFERENCE = Path(__file__).resolve().parent / "reference" / f"seed{DEFAULT_SEED}.json"

FEM_TOL = 1e-10          # relative to sigma_1 on the same mesh level
RADIAL_TOL = 1e-8        # criterion-1 tolerance
HYPERBOLIC_TOL = 1e-6    # criterion-2 tolerance (1/sinh R)
CSV_TOL = 1e-8
ZERO_MODE_TOL = 1e-8     # |sigma_0| / sigma_1 on every level
EXIT_CODES = {"sweep": 2, "chain": 0}


def load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _zero_mode(levels) -> list[str]:
    return [f"zero-mode ratio {abs(row[0]) / row[1]:.2e} on level {i}"
            for i, row in enumerate(levels) if abs(row[0]) >= ZERO_MODE_TOL * row[1]]


def _closed_form(space: str, R: float, sigma1: float) -> list[str]:
    """Constant-weight balls: sigma_1 = 1/R (Euclidean), 1/sinh R (H^2)."""
    if space in ("E2", "E3"):
        exact, tol = 1.0 / R, RADIAL_TOL
    elif space == "H2":
        exact, tol = 1.0 / math.sinh(R), HYPERBOLIC_TOL
    else:
        return []
    err = _rel(sigma1, exact)
    return [f"constant-weight ball sigma_1 off closed form by {err:.2e}"] \
        if err > tol else []


def _levels_match(got, ref) -> list[str]:
    if len(got) != len(ref) or any(len(g) != len(r) for g, r in zip(got, ref)):
        return ["per-level eigenvalue shape differs from reference"]
    worst = max(abs(g - r) / r_row[1] for g_row, r_row in zip(got, ref)
                for g, r in zip(g_row, r_row))
    return [f"per-level eigenvalues differ by {worst:.2e} x sigma_1"] \
        if worst > FEM_TOL else []


def _radial_match(got: dict, ref: dict, keys) -> list[str]:
    return [f"{k} differs from reference by {_rel(got[k], ref[k]):.2e}"
            for k in keys if _rel(got[k], ref[k]) > RADIAL_TOL]


def _row_match(got: dict | None, ref: dict | None) -> list[str]:
    if got is None or ref is None or set(got) != set(ref):
        return ["CSV row missing or with other columns than the reference"]
    bad = []
    for key, r in ref.items():
        g = got[key]
        try:
            gf, rf = float(g), float(r)
        except ValueError:
            if g != r:
                bad.append(f"CSV {key}: {g!r} != {r!r}")
            continue
        if not (abs(gf - rf) <= CSV_TOL * max(1.0, abs(rf))
                or (math.isnan(gf) and math.isnan(rf))):
            bad.append(f"CSV {key}: {g} vs reference {r}")
    return bad


def check_cli(rec: dict, ref: dict | None) -> list[str]:
    bad = []
    kind, spec, rep = rec["kind"], rec["spec"], rec["report"]
    if rec["exit_code"] != EXIT_CODES[kind]:
        bad.append(f"{kind} exit code {rec['exit_code']} != {EXIT_CODES[kind]}")
    if rep is None or rec["row"] is None:
        return bad + [f"{kind} report {rec['index']} missing"]
    if kind == "sweep":
        if rep["status"] != spec["expect"]:
            bad.append(f"status {rep['status']} where {spec['expect']} is expected")
        if spec["centred_disk"] and not rep["near_equality"]:
            bad.append("centred disk is not flagged near_equality")
        bad += _zero_mode(rep["sigma_levels"])
    else:
        if not all(rep["links_passed"].values()) or not rep["implication_consistent"]:
            bad.append("proof-chain links failed")
    if spec["constant_weight"]:
        bad += _closed_form("E2", rep["R"], rep["sigma1_ball"])
    if ref is not None:
        bad += _row_match(rec["row"], ref["row"])
        if ref["report"] is None:
            return bad + ["reference report missing"]
        bad += _radial_match(rep, ref["report"], ["sigma1_ball", "R"])
        if kind == "sweep":
            bad += _levels_match(rep["sigma_levels"], ref["report"]["sigma_levels"])
            if rep["status"] != ref["report"]["status"]:
                bad.append("status differs from reference")
    return bad


def check_fine(rec: dict, ref: dict | None) -> list[str]:
    if "error" in rec:
        return [rec["error"]]
    bad = []
    if rec["status"] != "pass":
        bad.append(f"status {rec['status']} on a domain centred at the weight origin")
    bad += _zero_mode(rec["sigma_levels"])
    if rec["spec"]["weight"][0] == "constant":
        bad += _closed_form(rec["spec"]["space"], rec["R"], rec["sigma1_ball"])
    if ref is not None:
        bad += _levels_match(rec["sigma_levels"], ref["sigma_levels"])
        bad += _radial_match(rec, ref, ["sigma1_ball", "R"])
        if rec["status"] != ref["status"]:
            bad.append("status differs from reference")
    return bad


def check_radial(rec: dict, ref: dict | None) -> list[str]:
    if "error" in rec:
        return [rec["error"]]
    bad = []
    if not rec["gh_passed"]:
        bad.append("G/H monotonicity failed")
    if rec["weight_kind"] == "constant":
        bad += _closed_form(rec["space"], 1.0, rec["beta"])
    if rec["match_error"] is not None and not _expected_match_error(rec):
        bad.append(f"match_radius raised {rec['match_error']}")
    if ref is not None:
        keys = ["beta", "sigma1_ball"]
        if ref["R_match"] is not None:
            keys.append("R_match")
        bad += _radial_match(rec, ref, keys)
    return bad


def _expected_match_error(rec: dict) -> bool:
    """Finding: the adaptive quadrature behind match_radius cannot reach its
    tolerance on tabulated (piecewise-linear) weights.  It is recorded as an
    expected outcome, not a failure; a fix that returns a radius also passes.
    """
    return rec["weight_kind"] == "tabulated" and rec["match_error"] == "QuadratureError"


CHECKS = {"cli-batch": check_cli, "fine-mesh": check_fine,
          "radial-suite": check_radial}


def check_pass(workload: str, records: list[dict], reference) -> list[list[str]]:
    """Failure messages per item of one pass."""
    check = CHECKS[workload]
    refs = reference or []
    if reference is not None and len(refs) != len(records):
        return [["item count differs from reference"]] * len(records)
    return [_guarded(check, rec, refs[i] if reference is not None else None)
            for i, rec in enumerate(records)]


def _guarded(check, rec: dict, ref) -> list[str]:
    # Output that no longer has the fields the gate reads is a failure, not
    # a crash of the benchmark.
    try:
        return check(rec, ref)
    except (KeyError, TypeError, IndexError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed output: {exc!r}"]


def summary(records: list[dict]) -> dict:
    """Status counts and the worst identity discrepancy of one pass."""
    statuses: dict[str, int] = {}
    worst = 0.0
    for rec in records:
        rep = rec.get("report", rec) or {}
        status = rep.get("status")
        if status is not None:
            spec = rec.get("spec", {})
            if status == "violation" and spec.get("expect") == "violation":
                status = "expected_violation"
            statuses[status] = statuses.get(status, 0) + 1
        if rec.get("match_error") and _expected_match_error(rec):
            statuses["expected_match_quadrature_error"] = \
                statuses.get("expected_match_quadrature_error", 0) + 1
        worst = max(worst, rep.get("identity_discrepancy", 0.0))
    return {"statuses": statuses, "identity_discrepancy_max": worst}
