"""Configuration-driven command-line front end.

Reads a flat-section ``key = value`` config file (``[domain]`` and
``[weight]`` blocks repeat for ``ball``, ``sweep`` and ``chain``), runs one
of the batch commands and emits CSV and/or JSON reports.  An identical
config yields byte-identical output files; every report embeds the fully
resolved configuration, with ``RunConfig``'s defaults for what it omits.

Exit status: 0 all checks passed, 2 flagged inequality violations,
1 configuration or solver errors.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import DEFAULT_CONFIG
from .geometry import (Curvature, DomainError, RadialWeight, SpaceForm,
                       validate_property_i)
from .mesh2d import Domain2D, MeridianDomain
from .radial import sigma1_ball
from .verify import (MeshHierarchy, brock_report, convergence_study,
                     proof_chain_check)

SCHEMA_VERSION = "steklovw-v1"


class ConfigError(ValueError):
    """Config parse/validation failure with file location."""

    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


_TOP_KEYS = {"command", "radii", "count"}
_SPACE_KEYS = {"curvature", "dim"}
_MESH_KEYS = {"rings", "sectors", "levels"}
_OUTPUT_KEYS = {"dir", "format"}

# weight kind -> its keys, in the order of the RadialWeight constructor's
# arguments ('c' defaults to 0)
_WEIGHT_KINDS = {"constant": ("c",), "linear": ("a",),
                 "quadratic": ("a", "b"), "tabulated": ("csv",)}

# kind -> (constructor, dim, keys in the order of the constructor's
# arguments); planar kinds also take an optional 'center', their last
# argument.  The constructors check the values.
_DOMAIN_KINDS = {
    "disk": (Domain2D.disk, 2, ("radius",)),
    "ellipse": (Domain2D.ellipse, 2, ("a", "b")),
    "perturbed_disk": (Domain2D.perturbed_disk, 2, ("radius", "epsilon", "k")),
    "polygon": (Domain2D.polygon, 2, ("vertices",)),
    "ball": (MeridianDomain.ball, 3, ("radius",)),
    "spheroid": (MeridianDomain.spheroid, 3, ("a", "c")),
    "perturbed_ball": (MeridianDomain.perturbed_ball, 3,
                       ("radius", "epsilon", "k")),
}


@dataclass
class RunConfig:
    command: str
    space: SpaceForm
    weights: list[RadialWeight]
    domains: list[Domain2D | MeridianDomain]
    radii: list[float] = field(default_factory=list)
    count: int = 5
    rings: int = 8
    sectors: int | None = None
    levels: int = 3
    out_dir: str = "out"
    out_format: str = "both"
    weight_sources: list[dict] = field(default_factory=list)
    domain_sources: list[dict] = field(default_factory=list)

    def resolved_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "space": {"curvature": self.space.curvature.label,
                      "dim": self.space.dim},
            "weights": self.weight_sources,
            "domains": self.domain_sources,
            "radii": [float(r) for r in self.radii],
            "count": self.count,
            "mesh": {"rings": self.rings, "sectors": self.sectors,
                     "levels": self.levels},
            "tolerances": DEFAULT_CONFIG.to_dict(),
            "output": {"dir": self.out_dir, "format": self.out_format},
        }


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_float(val: str, line: int) -> float:
    try:
        num = float(val)
    except ValueError:
        raise ConfigError(f"expected a number, got {val!r}", line) from None
    if not math.isfinite(num):
        raise ConfigError(f"expected a finite number, got {val!r}", line)
    return num


def _parse_int(val: str, line: int) -> int:
    try:
        return int(val)
    except ValueError:
        raise ConfigError(f"expected an integer, got {val!r}", line) from None


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


def _check_keys(name: str, body: dict, allowed: set[str]):
    for key, (_, ln) in body.items():
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in section [{name or 'top'}]", ln)


def _build_weight(body: dict, start: int) -> tuple[RadialWeight, dict]:
    if "kind" not in body:
        raise ConfigError("weight section needs a 'kind'", start)
    kind, kline = body["kind"][0].lower(), body["kind"][1]
    if kind not in _WEIGHT_KINDS:
        raise ConfigError(f"unknown weight kind {kind!r}", kline)
    keys = _WEIGHT_KINDS[kind]
    _check_keys("weight", body, {"kind", *keys})
    if kind == "constant" and "c" not in body:
        return RadialWeight.constant(0.0), {"kind": kind, "c": 0.0}
    for key in keys:
        if key not in body:
            raise ConfigError(f"{kind} weight needs {key!r}", kline)
    if kind != "tabulated":
        params = {key: _parse_float(*body[key]) for key in keys}
        return (getattr(RadialWeight, kind)(*params.values()),
                {"kind": kind, **params})
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


def _build_domain(body: dict, start: int,
                  dim: int) -> tuple[Domain2D | MeridianDomain, dict]:
    if "kind" not in body:
        raise ConfigError("domain section needs a 'kind'", start)
    kind, kline = body["kind"][0].lower(), body["kind"][1]
    if kind not in _DOMAIN_KINDS:
        raise ConfigError(f"unknown domain kind {kind!r}", kline)
    ctor, kind_dim, keys = _DOMAIN_KINDS[kind]
    if dim != kind_dim:
        raise ConfigError(f"domain kind {kind!r} needs dim = {kind_dim}", kline)
    if kind_dim == 3 and "center" in body:
        raise ConfigError("axisymmetric domains are centered; drop 'center'",
                          kline)
    _check_keys("domain", body, {"kind", "center", *keys})
    for key in keys:
        if key not in body:
            raise ConfigError(f"domain kind {kind!r} needs {key!r}", kline)
    parse = {"k": _parse_int, "vertices": _parse_vertices,
             "center": _parse_point}
    params = {key: parse.get(key, _parse_float)(*body[key])
              for key in keys + ("center",) if key in body}
    try:
        dom = ctor(*params.values())
    except DomainError as exc:
        raise ConfigError(str(exc), kline) from None
    return dom, {"kind": kind, **params}


def parse_config(text: str) -> RunConfig:
    sections = _read_sections(text)

    top = sections[0][2]
    _check_keys("", top, _TOP_KEYS)
    if "command" not in top:
        raise ConfigError("missing required top-level key 'command'")
    command, cline = top["command"][0].lower(), top["command"][1]
    if command not in _RUNNERS:
        raise ConfigError(f"unknown command {command!r} "
                          f"(expected one of {', '.join(_RUNNERS)})", cline)

    once = {"space", "mesh", "output"}
    if command in ("spectrum", "verify", "converge"):    # one run each
        once |= {"domain", "weight"}
    seen = set()
    for name, start, _ in sections[1:]:
        if name in once and name in seen:
            raise ConfigError(f"the {command!r} command takes one [{name}], "
                              "not several", start)
        seen.add(name)

    curvature = Curvature.EUCLIDEAN
    dim = 2
    opts = {}     # RunConfig's optional fields that the file states
    weights: list[RadialWeight] = []
    weight_sources: list[dict] = []
    domains: list[Domain2D | MeridianDomain] = []
    domain_sources: list[dict] = []

    for name, start, body in sections[1:]:
        if name == "space":
            _check_keys(name, body, _SPACE_KEYS)
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
            _check_keys(name, body, _MESH_KEYS)
            opts.update({key: _parse_int(*val) for key, val in body.items()})
            if opts.get("levels", 1) < 1:
                raise ConfigError("levels must be >= 1", body["levels"][1])
        elif name == "output":
            _check_keys(name, body, _OUTPUT_KEYS)
            if "dir" in body:
                opts["out_dir"] = body["dir"][0]
            if "format" in body:
                opts["out_format"] = body["format"][0].lower()
                if opts["out_format"] not in ("csv", "json", "both"):
                    raise ConfigError(f"unknown format {opts['out_format']!r}",
                                      body["format"][1])
        else:
            raise ConfigError(f"unknown section [{name}]", start)

    for name, start, body in sections[1:]:
        if name == "domain":
            dom, src = _build_domain(body, start, dim)
            domains.append(dom)
            domain_sources.append(src)

    space = SpaceForm(curvature, dim)
    if curvature is Curvature.SPHERICAL_CAP and command != "ball":
        raise ConfigError("spherical-cap space supports only the 'ball' command")
    if not weights:
        weights = [RadialWeight.constant(0.0)]
        weight_sources = [{"kind": "constant", "c": 0.0}]

    if "radii" in top:
        opts["radii"] = _parse_floats(*top["radii"])
        if any(r <= 0 for r in opts["radii"]):
            raise ConfigError("radii must be positive", top["radii"][1])
    if "count" in top:
        opts["count"] = _parse_int(*top["count"])
        if opts["count"] < 1:
            raise ConfigError("count must be >= 1", top["count"][1])

    if command == "ball" and not opts.get("radii"):
        raise ConfigError("the 'ball' command needs a top-level 'radii' list")
    if command in ("spectrum", "verify", "converge", "chain", "sweep") \
            and not domains:
        raise ConfigError(f"the {command!r} command needs at least one [domain]")

    return RunConfig(
        command=command, space=space, weights=weights, domains=domains,
        weight_sources=weight_sources, domain_sources=domain_sources, **opts)


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
            res = sigma1_ball(cfg.space, w, R)
            rows.append({
                "curvature": cfg.space.curvature.label, "n": cfg.space.dim,
                "weight": w.label, "R": R, "sigma1_ball": res.value,
                "identity_discrepancy": res.rel_discrepancy,
            })
    _emit(cfg, "ball", {"results": rows}, list(rows[0]), rows)
    return 0


def _mesh(cfg: RunConfig, dom) -> MeshHierarchy:
    """The mesh hierarchy of one domain at the config's mesh settings."""
    return MeshHierarchy(dom, cfg.space, cfg.rings, cfg.sectors, cfg.levels)


def _run_spectrum(cfg: RunConfig) -> int:
    hier, w = _mesh(cfg, cfg.domains[0]), cfg.weights[0]
    validate_property_i(w, hier.t_max)
    spec = hier.spectrum(-1, w, cfg.count)
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


def _each_run(cfg: RunConfig, report) -> list:
    """report(hierarchy, w) for every (domain, weight) pair in input order.

    Each domain is meshed once: its MeshHierarchy serves all the weights.
    A failure names the domain, and the weight when a report failed.
    """
    out = []
    for dom in cfg.domains:
        run = dom.kind
        try:
            hier = _mesh(cfg, dom)
            for w in cfg.weights:
                run = f"{dom.kind} x {w.label}"
                out.append(report(hier, w))
        except Exception as exc:
            raise RuntimeError(
                f"{cfg.command} run {run} failed: {exc}") from exc
    return out


def _run_verify(cfg: RunConfig) -> int:
    report = brock_report(_mesh(cfg, cfg.domains[0]), cfg.space, cfg.weights[0])
    row = report.csv_row()   # its keys are the report fields, in order
    _emit(cfg, "verify", {"report": asdict(report)}, list(row), [row])
    return 0 if report.passed else 2


def _run_sweep(cfg: RunConfig) -> int:
    """Every (domain, weight) pair in input order, one JSON file per run."""
    reports = _each_run(cfg, lambda hier, w: brock_report(hier, cfg.space, w))
    for i, rep in enumerate(reports):
        _emit(cfg, f"sweep_{i:03d}", {"report": asdict(rep)})
    rows = [r.csv_row() for r in reports]
    _emit(cfg, "sweep", None, list(rows[0]), rows)
    return 0 if all(r.passed for r in reports) else 2


def _run_converge(cfg: RunConfig) -> int:
    study = convergence_study(_mesh(cfg, cfg.domains[0]), cfg.space,
                              cfg.weights[0], cfg.count)
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
    _emit(cfg, "converge", {"study": asdict(study)}, fields, rows)
    return 0


def _run_chain(cfg: RunConfig) -> int:
    reports = _each_run(cfg, lambda hier, w: proof_chain_check(
        hier, cfg.space, w))
    fields = ["domain", "weight", "n", "margin_divergence",
              "margin_variational", "margin_ball_G", "margin_ball_H",
              "capped_ball_G_comparison", "passed"]
    rows = [{f: getattr(rep, f) for f in fields} for rep in reports]
    _emit(cfg, "chain", {"reports": [asdict(r) for r in reports]},
          fields, rows)
    return 0 if all(r.passed for r in reports) else 2


_RUNNERS = {"ball": _run_ball, "spectrum": _run_spectrum,
            "verify": _run_verify, "sweep": _run_sweep,
            "converge": _run_converge, "chain": _run_chain}


def run(cfg: RunConfig) -> int:
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
