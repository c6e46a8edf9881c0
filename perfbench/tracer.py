"""Outside-in tracer: spans around the library's public functions.

The tracer changes nothing in the package.  It replaces each traced
function in every ``steklovw`` module namespace that binds it (``from .x
import f`` copies the function object into the importing module, so
patching only the defining module would miss those calls) and each traced
method on its class.  A name that no longer exists is reported as absent
instead of failing the run, so the benchmark keeps working across
refactors of the package.

A span records name, start, end, parent span, item id and optional sizes.
Spans stay in memory and are written when the run ends.  The self time of
a span is its duration minus the durations of its child spans; children
run one at a time inside their parent, so their intervals do not overlap.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter


def _nnz(args, kwargs, result):
    return {"nnz": int(result.stiffness.nnz),
            "boundary_nodes": int(len(result.boundary_index))}


def _dtn_bytes(args, kwargs, result):
    # dense arrays dtn_reduce materialises: K_ib, X = K_ii^-1 K_ib and K_bi
    # (interior x boundary), plus K_bb, S and M_b (boundary x boundary)
    system = args[0] if args else kwargs["sys"]
    nv = system.stiffness.shape[0]
    nb = len(system.boundary_index)
    return {"dense_bytes": 8 * (3 * (nv - nb) * nb + 3 * nb * nb)}


def _vertices(args, kwargs, result):
    return {"vertices": int(len(result.vertices))}


def _nfev(args, kwargs, result):
    return {"nfev": int(result.nfev)}


def _points(args, kwargs, result):
    return {"points": int(result.size)}


# (module, attribute or Class.method, sizes); the span name is the last
# module component plus the attribute.
TARGETS = [
    ("steklovw.steklov2d", "assemble", _nnz),
    ("steklovw.steklov2d", "dtn_reduce", _dtn_bytes),
    ("steklovw.steklov2d", "solve_spectrum", None),
    ("steklovw.steklov2d", "domain_spectrum", None),
    ("steklovw.axisym3d", "assemble_mode", _nnz),
    ("steklovw.axisym3d", "solve_axisym_spectrum", None),
    ("steklovw.axisym3d", "MeridianDomain.refine", None),
    ("steklovw.mesh2d", "generate_mesh", _vertices),
    ("steklovw.mesh2d", "refine", _vertices),
    ("steklovw.mesh2d", "mesh_levels", None),
    ("steklovw.mesh2d", "integrate_weighted", None),
    ("steklovw.mesh2d", "integrate_boundary_weighted", None),
    ("steklovw.mesh2d", "mesh_measures", None),
    ("steklovw.radial", "solve_mode", None),
    ("steklovw.radial", "solve_ivp", _nfev),
    ("steklovw.radial", "sigma1_ball", None),
    ("steklovw.radial", "ball_spectrum", None),
    ("steklovw.radial", "ball_gh_integrals", None),
    ("steklovw.radial", "compute_gh", None),
    ("steklovw.radial", "check_gh_monotonicity", None),
    ("steklovw.radial", "RadialSolution.T_at", _points),
    ("steklovw.radial", "RadialSolution.Tprime_at", _points),
    ("steklovw.geometry", "validate_property_i", None),
    ("steklovw.geometry", "ball_weighted_volume", None),
    ("steklovw.verify", "match_radius", None),
    ("steklovw.verify", "brock_report", None),
    ("steklovw.verify", "question_a_report", None),
    ("steklovw.verify", "proof_chain_check", None),
    ("steklovw.verify", "convergence_study", None),
    ("steklovw.verify", "rearrangement_check", None),
    ("steklovw.cli", "main", None),
    ("steklovw.cli", "run", None),
    ("steklovw.cli", "parse_config", None),
]

REPORT_SPANS = ("verify.brock_report", "verify.question_a_report",
                "verify.proof_chain_check", "verify.convergence_study",
                "verify.rearrangement_check")

# Spans that must fire on the workloads the benchmark assigns their layer to.
EXPECTED = {
    "cli-batch": ["steklov2d.assemble", "steklov2d.dtn_reduce",
                  "steklov2d.solve_spectrum", "mesh2d.generate_mesh",
                  "mesh2d.refine", "mesh2d.integrate_weighted",
                  "mesh2d.integrate_boundary_weighted",
                  "radial.RadialSolution.T_at", "radial.RadialSolution.Tprime_at",
                  "verify.match_radius", "verify.question_a_report",
                  "verify.brock_report", "verify.proof_chain_check",
                  "cli.main", "cli.run", "cli.parse_config"],
    "fine-mesh": ["steklov2d.assemble", "steklov2d.dtn_reduce",
                  "steklov2d.solve_spectrum", "axisym3d.assemble_mode",
                  "axisym3d.solve_axisym_spectrum", "axisym3d.MeridianDomain.refine"],
    "radial-suite": ["radial.solve_mode", "radial.solve_ivp", "radial.sigma1_ball",
                     "radial.ball_gh_integrals", "radial.compute_gh",
                     "radial.check_gh_monotonicity",
                     "geometry.validate_property_i",
                     "geometry.ball_weighted_volume"],
}


def _lookup(module: str, attr: str):
    """(holder, name, object) for a target, or None when it is absent."""
    try:
        holder = importlib.import_module(module)
    except ImportError:
        return None
    *owners, name = attr.split(".")
    for owner in owners:
        holder = getattr(holder, owner, None)
        if holder is None:
            return None
    if isinstance(holder, type):
        obj = holder.__dict__.get(name)
    else:
        obj = getattr(holder, name, None)
    if not callable(obj):
        return None
    return holder, name, obj


def patch_everywhere(holder, name: str, original, replacement) -> list:
    """Bind ``replacement`` wherever the package binds ``original``.

    Returns (namespace, name, original) triples for ``unpatch``.
    """
    if isinstance(holder, type):
        setattr(holder, name, replacement)
        return [(holder, name, original)]
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "steklovw"
                               or modname.startswith("steklovw.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                undo.append((mod, key, original))
    return undo


def unpatch(undo: list) -> None:
    for holder, name, original in reversed(undo):
        setattr(holder, name, original)


class Recorder:
    """Item boundaries, and spans once ``install_spans`` has run.

    ``item_begin``/``item_end`` nest: only the outermost pair is an item,
    so a report that calls another report counts once.  When
    ``speed_probe`` is set, it runs just outside each item and before each
    call hooked by ``hook_probes``, and returns speed samples; ``probe_s``
    sums the time it took, and item times leave it out.
    """

    def __init__(self):
        self.items: list[float] = []
        self.item_id: int | None = None
        self.next_id = 0
        self._depth = 0
        self._t0 = 0.0
        self._probe_mark = 0.0
        self._call_items = 0
        self._call_t0 = 0.0
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list = []
        self.absent: list[str] = []
        self.size_errors: set[str] = set()
        self.speed_probe = None
        self.speed_samples: list[float] = []
        self.probe_s = 0.0

    # -- item boundaries ------------------------------------------------
    def _probe(self) -> None:
        if self.speed_probe is not None:
            t0 = perf_counter()
            self.speed_samples += self.speed_probe()
            self.probe_s += perf_counter() - t0

    def item_begin(self) -> None:
        if self._depth == 0:
            self._probe()
            self.item_id = self.next_id
            self.next_id += 1
            self._probe_mark = self.probe_s
            self._t0 = perf_counter()
        self._depth += 1

    def item_end(self) -> None:
        self._depth -= 1
        if self._depth == 0:
            self.items.append(perf_counter() - self._t0
                              - (self.probe_s - self._probe_mark))
            self.item_id = None
            self._probe()

    def call_begin(self) -> None:
        """Start of a CLI call whose items the report hooks delimit."""
        self._call_items = len(self.items)
        self._call_t0 = perf_counter()

    def call_end(self) -> None:
        # Fallback when no hooked report ran inside the call: the call is
        # one item, so item times never silently disappear.
        if len(self.items) == self._call_items:
            self.items.append(perf_counter() - self._call_t0)

    def hook_items(self, targets) -> None:
        """Mark each call of the given (module, attr) functions as an item."""
        for module, attr in targets:
            found = _lookup(module, attr)
            if found is None:
                continue
            holder, name, original = found
            self._undo += patch_everywhere(holder, name, original,
                                           self._item_wrapper(original))

    def hook_probes(self, targets) -> None:
        """Run ``speed_probe`` before each call of the given functions."""
        for module, attr in targets:
            found = _lookup(module, attr)
            if found is None:
                continue
            holder, name, original = found
            self._undo += patch_everywhere(holder, name, original,
                                           self._probe_wrapper(original))

    def _probe_wrapper(self, fn):
        rec = self

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            rec._probe()
            return fn(*args, **kwargs)
        return probed

    def _item_wrapper(self, fn):
        rec = self

        @functools.wraps(fn)
        def item(*args, **kwargs):
            rec.item_begin()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.item_end()
        return item

    # -- spans ----------------------------------------------------------
    def install_spans(self) -> None:
        self.absent = []
        for module, attr, sizes in TARGETS:
            span = f"{module.rsplit('.', 1)[-1]}.{attr}"
            found = _lookup(module, attr)
            if found is None:
                self.absent.append(span)
                continue
            holder, name, original = found
            self._undo += patch_everywhere(holder, name, original,
                                           self._span_wrapper(original, span, sizes))

    def _span_wrapper(self, fn, span_name: str, sizes):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = rec._stack[-1] if rec._stack else -1
            span = [span_name, perf_counter(), 0.0, parent, rec.item_id, None]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._stack.pop()
                span[2] = perf_counter()
            if sizes is not None:
                try:
                    span[5] = sizes(args, kwargs, result)
                except Exception:   # a changed signature must not stop the run
                    rec.size_errors.add(span_name)
            return result
        return traced

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, item, sizes in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item,
                                     "sizes": sizes}) + "\n")


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    out = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _under_axisym(spans: list[list]) -> list[bool]:
    """True for spans inside an axisymmetric solve (parents precede children)."""
    flags = []
    for name, _, _, parent, _, _ in spans:
        flags.append(name.startswith("axisym3d.") or
                     (parent >= 0 and flags[parent]))
    return flags


def _has_report_ancestor(spans: list[list]) -> list[bool]:
    flags = []
    for name, _, _, parent, _, _ in spans:
        flags.append(parent >= 0 and (spans[parent][0] in REPORT_SPANS
                                      or flags[parent]))
    return flags


# Layer time metrics: (metric, span names, True/False = only spans inside /
# outside an axisymmetric solve, None = both).
LAYER_TIMES = [
    ("steklov2d.dtn_s", ("steklov2d.dtn_reduce",), False),
    ("steklov2d.eig_s", ("steklov2d.solve_spectrum",), False),
    ("steklov2d.assemble_s", ("steklov2d.assemble",), False),
    ("mesh2d.build_s", ("mesh2d.generate_mesh", "mesh2d.refine",
                        "mesh2d.mesh_levels"), None),
    ("mesh2d.quad_s", ("mesh2d.integrate_weighted",
                       "mesh2d.integrate_boundary_weighted",
                       "mesh2d.mesh_measures"), None),
    ("axisym3d.refine_s", ("axisym3d.MeridianDomain.refine",), None),
    ("axisym3d.assemble_s", ("axisym3d.assemble_mode",), None),
    ("axisym3d.dtn_s", ("steklov2d.dtn_reduce",), True),
    ("axisym3d.eig_s", ("steklov2d.solve_spectrum",), True),
    ("radial.solve_s", ("radial.solve_mode", "radial.solve_ivp"), None),
    ("radial.sigma1_s", ("radial.sigma1_ball", "radial.ball_spectrum"), None),
    ("radial.gh_s", ("radial.compute_gh", "radial.check_gh_monotonicity",
                     "radial.ball_gh_integrals"), None),
    ("radial.dense_eval_s", ("radial.RadialSolution.T_at",
                             "radial.RadialSolution.Tprime_at"), None),
    ("geometry.validate_s", ("geometry.validate_property_i",), None),
    ("geometry.ball_volume_s", ("geometry.ball_weighted_volume",), None),
    ("verify.match_s", ("verify.match_radius",), None),
    ("verify.report_self_s", REPORT_SPANS, None),
    ("cli.parse_s", ("cli.parse_config",), None),
    ("cli.run_self_s", ("cli.main", "cli.run"), None),
]

# Layer count metrics: (metric, span names, axisym filter, size key or None
# for a call count, "sum" or "max").
LAYER_COUNTS = [
    ("steklov2d.solves", ("steklov2d.solve_spectrum",), False, None, "sum"),
    ("steklov2d.nnz", ("steklov2d.assemble",), False, "nnz", "max"),
    ("steklov2d.boundary_nodes", ("steklov2d.assemble",), False,
     "boundary_nodes", "max"),
    ("steklov2d.dtn_dense_bytes_max", ("steklov2d.dtn_reduce",), False,
     "dense_bytes", "max"),
    ("mesh2d.builds", ("mesh2d.generate_mesh",), None, None, "sum"),
    ("mesh2d.vertices_built", ("mesh2d.generate_mesh", "mesh2d.refine"), None,
     "vertices", "sum"),
    ("mesh2d.quad_calls", ("mesh2d.integrate_weighted",
                           "mesh2d.integrate_boundary_weighted"), None, None, "sum"),
    ("axisym3d.mode_solves", ("steklov2d.solve_spectrum",), True, None, "sum"),
    ("axisym3d.dtn_dense_bytes_max", ("steklov2d.dtn_reduce",), True,
     "dense_bytes", "max"),
    ("radial.solves", ("radial.solve_mode",), None, None, "sum"),
    ("radial.rhs_evals", ("radial.solve_ivp",), None, "nfev", "sum"),
    ("radial.dense_eval_points", ("radial.RadialSolution.T_at",
                                  "radial.RadialSolution.Tprime_at"), None,
     "points", "sum"),
    ("geometry.validate_calls", ("geometry.validate_property_i",), None, None, "sum"),
    ("geometry.ball_volume_calls", ("geometry.ball_weighted_volume",), None,
     None, "sum"),
    ("verify.match_calls", ("verify.match_radius",), None, None, "sum"),
]


def layer_metrics(spans: list[list], passes: int, items=None) -> dict:
    """Per-pass layer metrics; ``items`` restricts to spans of those item ids.

    Sums are divided by the number of traced passes so that runs that fit
    a different number of passes stay comparable; maxima are not.
    """
    selft = self_times(spans)
    axi = _under_axisym(spans)
    nested = _has_report_ancestor(spans)
    keep = [items is None or s[4] in items for s in spans]
    out = {}
    for metric, names, inside in LAYER_TIMES:
        out[metric] = sum(t for s, t, a, k in zip(spans, selft, axi, keep)
                          if k and s[0] in names and (inside is None or a == inside)) / passes
    for metric, names, inside, key, how in LAYER_COUNTS:
        vals = [(s[5] or {}).get(key, 0) if key else 1
                for s, a, k in zip(spans, axi, keep)
                if k and s[0] in names and (inside is None or a == inside)]
        out[metric] = max(vals, default=0) if how == "max" else sum(vals) / passes
    out["verify.reports"] = sum(
        1 for s, n, k in zip(spans, nested, keep)
        if k and s[0] in REPORT_SPANS and not n) / passes
    return out


def silent_spans(spans: list[list], workload: str, absent: list[str]) -> list[str]:
    fired = {s[0] for s in spans}
    return [n for n in EXPECTED.get(workload, [])
            if n not in fired and n not in absent]
