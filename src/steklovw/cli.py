"""Configuration-driven command-line front end.

Reads a flat-section ``key = value`` config file (repeatable ``[domain]``
and ``[weight]`` blocks), runs one of the batch commands and emits CSV
and/or JSON reports.  An identical config yields byte-identical output
files; every report embeds the fully resolved configuration.

Exit status: 0 all checks passed, 2 flagged inequality violations,
1 configuration or solver errors.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .axisym3d import MeridianDomain
from .config import DEFAULT_CONFIG, NumericsConfig
from .geometry import Curvature, RadialWeight, SpaceForm
from .mesh2d import Domain2D
from .radial import sigma1_ball
from .verify import (MeshHierarchy, brock_report, convergence_study,
                     default_sectors, proof_chain_check, question_a_report)

SCHEMA_VERSION = "steklovw-v1"


class ConfigError(ValueError):
    """Config parse/validation failure with file location."""

    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


_TOP_KEYS = {"command", "radii", "count", "waive_admissibility"}
_SPACE_KEYS = {"curvature", "dim"}
_WEIGHT_KEYS = {"kind", "c", "a", "b", "csv"}
_DOMAIN_KEYS = {"kind", "radius", "a", "b", "c", "epsilon", "k", "center",
                "vertices"}
_MESH_KEYS = {"rings", "sectors", "levels", "min_angle_deg"}
_TOL_KEYS = {"integrator_rtol", "integrator_method", "series_start_factor",
             "report_points", "quadrature_abstol", "property_tol",
             "identity_warn_tol", "hyperbolic_margin",
             "zero_mode_tol", "slack_floor", "equality_floor",
             "radius_match_rtol", "radius_max"}
_OUTPUT_KEYS = {"dir", "format"}


@dataclass
class DomainSpec:
    """Validated domain parameters; 3-D meshes are built at run time."""

    kind: str
    params: dict

    def build(self, rings: int, sectors: int,
              config: NumericsConfig = DEFAULT_CONFIG):
        p = self.params
        if self.kind == "disk":
            return Domain2D.disk(p["radius"], p.get("center", (0.0, 0.0)))
        if self.kind == "ellipse":
            return Domain2D.ellipse(p["a"], p["b"], p.get("center", (0.0, 0.0)))
        if self.kind == "perturbed_disk":
            return Domain2D.perturbed_disk(p["radius"], p["epsilon"], p["k"],
                                           p.get("center", (0.0, 0.0)))
        if self.kind == "polygon":
            return Domain2D.polygon(p["vertices"], p.get("center", (0.0, 0.0)))
        if self.kind == "ball":
            return MeridianDomain.ball(p["radius"], rings, sectors, config)
        if self.kind == "spheroid":
            return MeridianDomain.spheroid(p["a"], p["c"], rings, sectors,
                                           config)
        if self.kind == "perturbed_ball":
            return MeridianDomain.perturbed_ball(p["radius"], p["epsilon"],
                                                 p["k"], rings, sectors, config)
        raise ConfigError(f"unknown domain kind {self.kind!r}")

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for key, val in self.params.items():
            if key == "vertices":
                out[key] = [[float(x), float(y)] for x, y in val]
            elif key == "center":
                out[key] = [float(val[0]), float(val[1])]
            else:
                out[key] = val
        return out


@dataclass
class RunConfig:
    command: str
    space: SpaceForm
    weights: list[RadialWeight]
    domains: list[DomainSpec]
    radii: list[float] = field(default_factory=list)
    count: int = 5
    rings: int = 8
    sectors: int | None = None
    levels: int = 3
    numerics: NumericsConfig = DEFAULT_CONFIG
    out_dir: str = "out"
    out_format: str = "both"
    waive_admissibility: bool = False
    weight_sources: list[dict] = field(default_factory=list)

    def resolved_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "space": {"curvature": self.space.curvature.label,
                      "dim": self.space.dim},
            "weights": self.weight_sources,
            "domains": [d.to_dict() for d in self.domains],
            "radii": [float(r) for r in self.radii],
            "count": self.count,
            "mesh": {"rings": self.rings, "sectors": self.sectors,
                     "levels": self.levels},
            "tolerances": self.numerics.to_dict(),
            "output": {"dir": self.out_dir, "format": self.out_format},
            "waive_admissibility": self.waive_admissibility,
        }


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_float(val: str, line: int) -> float:
    try:
        return float(val)
    except ValueError:
        raise ConfigError(f"expected a number, got {val!r}", line) from None


def _parse_int(val: str, line: int) -> int:
    try:
        return int(val)
    except ValueError:
        raise ConfigError(f"expected an integer, got {val!r}", line) from None


def _parse_bool(val: str, line: int) -> bool:
    low = val.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {val!r}", line)


def _parse_floats(val: str, line: int) -> list[float]:
    parts = [p for chunk in val.split(",") for p in chunk.split()]
    return [_parse_float(p, line) for p in parts]


def _parse_point(val: str, line: int) -> tuple[float, float]:
    nums = _parse_floats(val, line)
    if len(nums) != 2:
        raise ConfigError(f"expected 'x, y', got {val!r}", line)
    return (nums[0], nums[1])


def _parse_vertices(val: str, line: int) -> list[tuple[float, float]]:
    pts = []
    for chunk in val.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        nums = _parse_floats(chunk, line)
        if len(nums) != 2:
            raise ConfigError(f"bad vertex {chunk!r}", line)
        pts.append((nums[0], nums[1]))
    return pts


def _read_sections(text: str):
    """Yield (section_name, start_line, {key: (value, line)}) in file order."""
    sections = []
    current = ("", 0, {})
    sections.append(current)
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = (line[1:-1].strip().lower(), ln, {})
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw!r}", ln)
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if key in current[2]:
            raise ConfigError(f"duplicate key {key!r} in section", ln)
        current[2][key] = (val, ln)
    return sections


def _check_keys(name: str, body: dict, allowed: set[str], start: int):
    for key, (_, ln) in body.items():
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in section [{name or 'top'}]", ln)


def _build_weight(body: dict, start: int) -> tuple[RadialWeight, dict]:
    _check_keys("weight", body, _WEIGHT_KEYS, start)
    if "kind" not in body:
        raise ConfigError("weight section needs a 'kind'", start)
    kind, kline = body["kind"][0].lower(), body["kind"][1]
    if kind == "constant":
        c = _parse_float(body["c"][0], body["c"][1]) if "c" in body else 0.0
        return RadialWeight.constant(c), {"kind": kind, "c": c}
    if kind == "linear":
        if "a" not in body:
            raise ConfigError("linear weight needs 'a'", kline)
        a = _parse_float(body["a"][0], body["a"][1])
        return RadialWeight.linear(a), {"kind": kind, "a": a}
    if kind == "quadratic":
        if "a" not in body or "b" not in body:
            raise ConfigError("quadratic weight needs 'a' and 'b'", kline)
        a = _parse_float(body["a"][0], body["a"][1])
        b = _parse_float(body["b"][0], body["b"][1])
        return RadialWeight.quadratic(a, b), {"kind": kind, "a": a, "b": b}
    if kind == "tabulated":
        if "csv" not in body:
            raise ConfigError("tabulated weight needs 'csv = <path>'", kline)
        path, pline = body["csv"]
        try:
            table = np.loadtxt(path, delimiter=",", ndmin=2)
        except Exception as exc:
            raise ConfigError(f"cannot read weight table {path!r}: {exc}",
                              pline) from None
        if table.shape[1] != 2:
            raise ConfigError("weight table must have two columns (t, phi)", pline)
        try:
            w = RadialWeight.tabulated(table[:, 0], table[:, 1])
        except Exception as exc:
            raise ConfigError(f"invalid weight table {path!r}: {exc}",
                              pline) from None
        return w, {"kind": kind, "csv": str(path)}
    raise ConfigError(f"unknown weight kind {kind!r}", kline)


def _build_domain(body: dict, start: int, dim: int) -> DomainSpec:
    _check_keys("domain", body, _DOMAIN_KEYS, start)
    if "kind" not in body:
        raise ConfigError("domain section needs a 'kind'", start)
    kind, kline = body["kind"][0].lower(), body["kind"][1]

    def fval(key, default=None):
        if key not in body:
            if default is None:
                raise ConfigError(f"domain kind {kind!r} needs {key!r}", kline)
            return default
        return _parse_float(body[key][0], body[key][1])

    params: dict = {}
    if "center" in body:
        params["center"] = _parse_point(body["center"][0], body["center"][1])

    planar = kind in ("disk", "ellipse", "perturbed_disk", "polygon")
    solid = kind in ("ball", "spheroid", "perturbed_ball")
    if not (planar or solid):
        raise ConfigError(f"unknown domain kind {kind!r}", kline)
    if planar and dim != 2:
        raise ConfigError(f"domain kind {kind!r} needs dim = 2", kline)
    if solid and dim != 3:
        raise ConfigError(f"domain kind {kind!r} needs dim = 3", kline)
    if solid and "center" in params:
        raise ConfigError("axisymmetric domains are centered; drop 'center'",
                          kline)

    if kind in ("disk", "ball"):
        params["radius"] = fval("radius")
        if params["radius"] <= 0:
            raise ConfigError("radius must be positive", kline)
    elif kind in ("ellipse", "spheroid"):
        axis2 = "b" if kind == "ellipse" else "c"
        params["a"] = fval("a")
        params[axis2] = fval(axis2)
        if params["a"] <= 0 or params[axis2] <= 0:
            raise ConfigError("semi-axes must be positive", kline)
    elif kind in ("perturbed_disk", "perturbed_ball"):
        params["radius"] = fval("radius")
        params["epsilon"] = fval("epsilon")
        if "k" not in body:
            raise ConfigError(f"domain kind {kind!r} needs 'k'", kline)
        params["k"] = _parse_int(body["k"][0], body["k"][1])
        if abs(params["epsilon"]) * params["k"] >= 1.0:
            raise ConfigError(
                f"|epsilon|*k = {abs(params['epsilon']) * params['k']:g} >= 1 "
                "breaks star-shapedness", kline)
        if params["radius"] <= 0:
            raise ConfigError("radius must be positive", kline)
    else:  # polygon
        if "vertices" not in body:
            raise ConfigError("polygon domain needs 'vertices'", kline)
        params["vertices"] = _parse_vertices(body["vertices"][0],
                                             body["vertices"][1])
    spec = DomainSpec(kind=kind, params=params)
    if planar:
        spec.build(2, 8)   # parse-time invariant check (cheap build)
    return spec


def parse_config(text: str) -> RunConfig:
    sections = _read_sections(text)

    top = sections[0][2]
    _check_keys("", top, _TOP_KEYS, 0)
    if "command" not in top:
        raise ConfigError("missing required top-level key 'command'")
    command, cline = top["command"][0].lower(), top["command"][1]
    if command not in _RUNNERS:
        raise ConfigError(f"unknown command {command!r} "
                          f"(expected one of {', '.join(_RUNNERS)})", cline)

    curvature = Curvature.EUCLIDEAN
    dim = 2
    numerics_kw: dict = {}
    rings, sectors, levels = 8, None, 3
    out_dir, out_format = "out", "both"
    weights: list[RadialWeight] = []
    weight_sources: list[dict] = []
    domains: list[DomainSpec] = []

    for name, start, body in sections[1:]:
        if name == "space":
            _check_keys(name, body, _SPACE_KEYS, start)
            if "curvature" in body:
                val, ln = body["curvature"]
                try:
                    curvature = Curvature[val.strip().upper()]
                except KeyError:
                    raise ConfigError(f"unknown curvature {val!r}", ln) from None
            if "dim" in body:
                dim = _parse_int(body["dim"][0], body["dim"][1])
                if dim < 2:
                    raise ConfigError("dim must be >= 2", body["dim"][1])
        elif name == "weight":
            w, src = _build_weight(body, start)
            weights.append(w)
            weight_sources.append(src)
        elif name == "domain":
            pass   # needs dim; handled in a second pass below
        elif name == "mesh":
            _check_keys(name, body, _MESH_KEYS, start)
            if "rings" in body:
                rings = _parse_int(body["rings"][0], body["rings"][1])
            if "sectors" in body:
                sectors = _parse_int(body["sectors"][0], body["sectors"][1])
            if "levels" in body:
                levels = _parse_int(body["levels"][0], body["levels"][1])
                if levels < 1:
                    raise ConfigError("levels must be >= 1", body["levels"][1])
            if "min_angle_deg" in body:
                numerics_kw["min_angle_deg"] = _parse_float(
                    body["min_angle_deg"][0], body["min_angle_deg"][1])
        elif name == "tolerances":
            _check_keys(name, body, _TOL_KEYS, start)
            for key, (val, ln) in body.items():
                if key in ("report_points",):
                    numerics_kw[key] = _parse_int(val, ln)
                elif key == "integrator_method":
                    numerics_kw[key] = val
                else:
                    parsed = _parse_float(val, ln)
                    if parsed <= 0:
                        raise ConfigError(f"tolerance {key!r} must be positive", ln)
                    numerics_kw[key] = parsed
        elif name == "output":
            _check_keys(name, body, _OUTPUT_KEYS, start)
            if "dir" in body:
                out_dir = body["dir"][0]
            if "format" in body:
                out_format = body["format"][0].lower()
                if out_format not in ("csv", "json", "both"):
                    raise ConfigError(f"unknown format {out_format!r}",
                                      body["format"][1])
        else:
            raise ConfigError(f"unknown section [{name}]", start)

    for name, start, body in sections[1:]:
        if name == "domain":
            domains.append(_build_domain(body, start, dim))

    space = SpaceForm(curvature, dim)
    if curvature is Curvature.SPHERICAL_CAP and command != "ball":
        raise ConfigError("spherical-cap space supports only the 'ball' command")
    if not weights:
        weights = [RadialWeight.constant(0.0)]
        weight_sources = [{"kind": "constant", "c": 0.0}]

    radii = []
    if "radii" in top:
        radii = _parse_floats(top["radii"][0], top["radii"][1])
        if any(r <= 0 for r in radii):
            raise ConfigError("radii must be positive", top["radii"][1])
    count = _parse_int(*top["count"]) if "count" in top else 5
    waive = _parse_bool(*top["waive_admissibility"]) \
        if "waive_admissibility" in top else False

    if command == "ball" and not radii:
        raise ConfigError("the 'ball' command needs a top-level 'radii' list")
    if command in ("spectrum", "verify", "converge", "chain", "sweep") \
            and not domains:
        raise ConfigError(f"the {command!r} command needs at least one [domain]")

    return RunConfig(
        command=command, space=space, weights=weights, domains=domains,
        radii=radii, count=count, rings=rings, sectors=sectors, levels=levels,
        numerics=DEFAULT_CONFIG.replace(**numerics_kw),
        out_dir=out_dir, out_format=out_format,
        waive_admissibility=waive, weight_sources=weight_sources)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _sanitize(payload):
    """Plain Python values, with non-finite floats replaced so json stays
    strictly valid."""
    if isinstance(payload, dict):
        return {k: _sanitize(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple, np.ndarray)):
        return [_sanitize(v) for v in payload]
    if isinstance(payload, np.generic):
        payload = payload.item()
    if isinstance(payload, float) and not math.isfinite(payload):
        return None
    return payload


# ---------------------------------------------------------------------------
# command drivers
# ---------------------------------------------------------------------------

def _emit(cfg: RunConfig, stem: str, payload: dict | None,
          fieldnames: list[str] | None = None, rows: list[dict] = ()):
    """Write ``stem.json`` (payload plus the resolved config) and ``stem.csv``
    as the output format asks; a None payload or field list skips that file."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if payload is not None and cfg.out_format in ("json", "both"):
        payload = _sanitize({**payload, "config": cfg.resolved_dict()})
        (out / f"{stem}.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if fieldnames is not None and cfg.out_format in ("csv", "both"):
        config_line = json.dumps(_sanitize(cfg.resolved_dict()), sort_keys=True)
        with open(out / f"{stem}.csv", "w", newline="") as fh:
            fh.write(f"# schema: {SCHEMA_VERSION}:{stem}\n")
            fh.write(f"# config: {config_line}\n")
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _fmt(v) for k, v in row.items()})


def _run_ball(cfg: RunConfig) -> int:
    rows = []
    for w in cfg.weights:
        for R in cfg.radii:
            res = sigma1_ball(cfg.space, w, R, cfg.numerics,
                              waive_admissibility=cfg.waive_admissibility)
            rows.append({
                "curvature": cfg.space.curvature.label, "n": cfg.space.dim,
                "weight": w.label, "R": R, "sigma1_ball": res.value,
                "identity_discrepancy": res.rel_discrepancy,
            })
    _emit(cfg, "ball", {"results": rows}, list(rows[0]), rows)
    return 0


def _build_domain_obj(cfg: RunConfig, spec: DomainSpec):
    sectors = cfg.sectors if cfg.sectors is not None else \
        default_sectors(cfg.space.dim)
    return spec.build(cfg.rings, sectors, cfg.numerics), sectors


def _run_spectrum(cfg: RunConfig) -> int:
    dom, sectors = _build_domain_obj(cfg, cfg.domains[0])
    hier = MeshHierarchy(dom, cfg.space, cfg.rings, sectors, cfg.levels,
                         cfg.numerics)
    spec = hier.spectrum(-1, cfg.weights[0], cfg.count)
    spec.metadata["identities"] = {
        "zero_mode_ratio": abs(spec.eigenvalues[0]) /
        max(spec.eigenvalues[1], 1e-300),
    }
    rows = [{"index": i, "sigma": float(v)}
            for i, v in enumerate(spec.eigenvalues)]
    for row, m in zip(rows, spec.modes or ()):
        row["mode"] = m
    _emit(cfg, "spectrum", {"spectrum": spec.to_json_dict()}, list(rows[0]),
          rows)
    return 0


def _verify_one(cfg: RunConfig, spec: DomainSpec, w: RadialWeight):
    dom, sectors = _build_domain_obj(cfg, spec)
    fn = question_a_report if cfg.space.dim == 2 else brock_report
    return fn(dom, cfg.space, w, rings=cfg.rings, sectors=sectors,
              levels=cfg.levels, config=cfg.numerics,
              waive_admissibility=cfg.waive_admissibility)


def _run_verify(cfg: RunConfig) -> int:
    report = _verify_one(cfg, cfg.domains[0], cfg.weights[0])
    row = report.csv_row()   # its keys are the report fields, in order
    _emit(cfg, "verify", {"report": report.to_json_dict()}, list(row), [row])
    return 0 if report.passed else 2


def _run_sweep(cfg: RunConfig) -> int:
    """Every (domain, weight) pair in input order, one JSON file per run."""
    reports = []
    for spec in cfg.domains:
        for w in cfg.weights:
            try:
                reports.append(_verify_one(cfg, spec, w))
            except Exception as exc:
                raise RuntimeError(
                    f"sweep run {spec.kind} x {w.label} failed: {exc}") from exc
    for i, rep in enumerate(reports):
        _emit(cfg, f"sweep_{i:03d}", {"report": rep.to_json_dict()})
    rows = [r.csv_row() for r in reports]
    _emit(cfg, "sweep", None, list(rows[0]), rows)
    return 0 if all(r.passed for r in reports) else 2


def _run_converge(cfg: RunConfig) -> int:
    dom, sectors = _build_domain_obj(cfg, cfg.domains[0])
    study = convergence_study(dom, cfg.space, cfg.weights[0], cfg.count,
                              rings=cfg.rings, sectors=sectors,
                              levels=max(cfg.levels, 3), config=cfg.numerics,
                              waive_admissibility=cfg.waive_admissibility)
    rows = []
    for i in range(1, cfg.count + 1):
        row = {"index": i}
        for lev, vals in enumerate(study.values):
            row[f"level{lev}"] = vals[i]
        row["extrapolated"] = study.extrapolated[i - 1]
        row["order"] = study.orders[i - 1]
        row["error"] = study.errors[i - 1]
        rows.append(row)
    fields = (["index"] + [f"level{l}" for l in range(len(study.values))]
              + ["extrapolated", "order", "error"])
    _emit(cfg, "converge", {"study": study.to_json_dict()}, fields, rows)
    return 0


def _run_chain(cfg: RunConfig) -> int:
    reports = []
    for spec in cfg.domains:
        dom, sectors = _build_domain_obj(cfg, spec)
        for w in cfg.weights:
            reports.append(proof_chain_check(
                dom, cfg.space, w, rings=cfg.rings, sectors=sectors,
                levels=cfg.levels, config=cfg.numerics,
                waive_admissibility=cfg.waive_admissibility))
    fields = ["domain", "weight", "n", "margin_divergence",
              "margin_variational", "margin_ball_G", "margin_ball_H",
              "capped_ball_G_comparison", "passed"]
    rows = [{f: getattr(rep, f) for f in fields} for rep in reports]
    _emit(cfg, "chain", {"reports": [r.to_json_dict() for r in reports]},
          fields, rows)
    return 0 if all(r.passed for r in reports) else 2


_RUNNERS = {"ball": _run_ball, "spectrum": _run_spectrum,
            "verify": _run_verify, "sweep": _run_sweep,
            "converge": _run_converge, "chain": _run_chain}


def run(cfg: RunConfig) -> int:
    if cfg.command not in _RUNNERS:
        print(f"error: unknown command {cfg.command!r}", file=sys.stderr)
        return 1
    try:
        return _RUNNERS[cfg.command](cfg)
    except Exception as exc:
        print(f"error [{cfg.command}]: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="steklovw",
        description="Weighted Steklov eigenvalue tables and inequality reports")
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", help="output directory (overrides [output] dir)")
    parser.add_argument("--format", choices=("csv", "json", "both"),
                        help="output format (overrides [output] format)")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.out is not None:
        cfg.out_dir = args.out
    if args.format is not None:
        cfg.out_format = args.format

    code = run(cfg)
    if code == 0:
        print("all checks passed")
    elif code == 2:
        print("flagged inequality violations; see reports", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
