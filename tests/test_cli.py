import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import oracles
import steklovw
import steklovw.cli as cli
import steklovw.mesh2d
import steklovw.verify
from steklovw.cli import ConfigError, _sanitize, main, parse_config, run
from steklovw.verify import brock_report, proof_chain_check


def cfg_text(body: str) -> str:
    return textwrap.dedent(body).strip() + "\n"


BALL_CFG = """
    command = ball
    radii = 0.5, 1, 2

    [space]
    curvature = euclidean
    dim = 2

    [weight]
    kind = constant
"""


def test_parse_minimal_ball_config_fills_defaults():
    cfg = parse_config(cfg_text(BALL_CFG))
    assert cfg.command == "ball"
    assert cfg.radii == [0.5, 1.0, 2.0]
    assert cfg.space.dim == 2
    assert cfg.levels == 3
    assert cfg.out_format == "both"
    resolved = cfg.resolved_dict()
    assert resolved["tolerances"]["integrator_rtol"] == 1e-10
    assert resolved["tolerances"]["slack_floor"] == 1e-3


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(cfg_text(BALL_CFG + "\nbogus = 1"))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(cfg_text("""
            command = ball
            radii = 1

            [space]
            curvature = euclidean
            dim = 2
            extra = 3
        """))
    with pytest.raises(ConfigError, match="unknown key 'min_angle_deg'"):
        parse_config(cfg_text(BALL_CFG + "\n[mesh]\nmin_angle_deg = 15"))
    # keys of another kind are rejected, not dropped
    with pytest.raises(ConfigError, match="unknown key 'a'"):
        parse_config("command = verify\n[domain]\nkind = disk\nradius = 1\n"
                     "a = 5\nepsilon = 3\n")
    with pytest.raises(ConfigError, match="unknown key 'a'"):
        parse_config(cfg_text(BALL_CFG + "\n[weight]\nkind = constant\na = 5"))
    # Property I has no off switch
    with pytest.raises(ConfigError,
                       match="line 3: unknown key 'waive_admissibility'"):
        parse_config("command = ball\nradii = 1\nwaive_admissibility = true\n")


def test_parse_rejects_non_finite_numbers():
    cases = [
        ("[domain]\nkind = disk\nradius = nan", "nan"),
        ("[weight]\nkind = linear\na = inf", "inf"),
        ("radii = 1, nan", "nan"),
        ("[domain]\nkind = disk\nradius = 1\ncenter = 0, inf", "inf"),
    ]
    for body, bad in cases:
        text = "command = verify\n" + body + "\n"
        if not body.startswith("[domain]"):
            text += "[domain]\nkind = disk\nradius = 1\n"
        line = next(i for i, ln in enumerate(text.splitlines(), start=1)
                    if ln.endswith(bad))
        with pytest.raises(ConfigError, match="finite number") as err:
            parse_config(text)
        assert err.value.line == line


def test_parse_rejects_count_below_one():
    for command in ("ball", "spectrum", "verify", "sweep", "converge", "chain"):
        for count in ("0", "-2"):
            text = (f"command = {command}\nradii = 1\ncount = {count}\n\n"
                    "[domain]\nkind = disk\nradius = 1\n")
            with pytest.raises(ConfigError, match="count must be >= 1") as err:
                parse_config(text)
            assert err.value.line == 3


@pytest.mark.parametrize("command", ["spectrum", "verify", "converge"])
@pytest.mark.parametrize("section", ["domain", "weight"])
def test_single_run_commands_reject_a_second_section(command, section):
    """spectrum, verify and converge run one domain under one weight; a
    second [domain] or [weight] is a config error at its own line, while
    sweep takes both lists."""
    body = {"domain": "[domain]\nkind = disk\nradius = 1\n",
            "weight": "[weight]\nkind = linear\na = 0.5\n"}
    text = (f"command = {command}\n" + body["domain"] + body["weight"]
            + body[section])
    with pytest.raises(ConfigError, match=f"one \\[{section}\\]") as err:
        parse_config(text)
    assert err.value.line == 8     # the header of the second section
    cfg = parse_config(text.replace(command, "sweep", 1))
    assert len(cfg.domains) + len(cfg.weights) == 3


def test_module_entrypoint_runs_without_warnings():
    src = str(Path(steklovw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "steklovw.cli", "--help"],
                          capture_output=True, text=True, check=True, env=env)
    assert "--config" in proc.stdout
    assert proc.stderr == ""


def test_parse_rejects_unknown_section_and_command():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(cfg_text(BALL_CFG + "\n[misc]\nx = 1"))
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(cfg_text(BALL_CFG + "\n[tolerances]\nslack_floor = 0.2"))
    with pytest.raises(ConfigError, match="unknown command"):
        parse_config(cfg_text("command = fly\nradii = 1"))
    with pytest.raises(ConfigError, match="command"):
        parse_config(cfg_text("[space]\ndim = 2"))


@pytest.mark.parametrize("section, first, second", [
    ("space", "curvature = euclidean", "curvature = hyperbolic"),
    ("mesh", "levels = 2", "levels = 3"),
    ("output", "dir = a", "dir = b"),
])
@pytest.mark.parametrize("command", list(cli._RUNNERS))
def test_parse_rejects_repeated_singleton_section(command, section, first,
                                                  second):
    """Only [weight] and [domain] repeat; a second [space], [mesh] or
    [output] is an error at its header, not a silent override."""
    text = (f"command = {command}\n[{section}]\n{first}\n"
            "[domain]\nkind = disk\nradius = 1\n"
            f"[{section}]\n{second}\n")
    with pytest.raises(ConfigError, match=rf"line 7: .* one \[{section}\]"):
        parse_config(text)


def test_run_exits_1_on_an_unknown_command(capsys):
    """parse_config rejects an unknown command at its line; a hand-built
    RunConfig with one fails in run's error handler."""
    cfg = dataclasses.replace(parse_config(cfg_text(BALL_CFG)), command="fly")
    assert run(cfg) == 1
    assert "error [fly]" in capsys.readouterr().err


def test_parse_rejects_star_shape_violation():
    with pytest.raises(ConfigError, match="star-shapedness"):
        parse_config(cfg_text("""
            command = verify

            [domain]
            kind = perturbed_disk
            radius = 1
            epsilon = 0.5
            k = 3
        """))
    # the constructors' own checks, reported at the line of the kind
    pk0 = "radius = 1\nepsilon = 0.1\nk = 0"
    for kind, params, match in (
            ("polygon", "vertices = 0 0; 1 0; 2 0", "star-shaped"),
            ("perturbed_disk", pk0, "k must be"),
            ("perturbed_ball", pk0 + "\n[space]\ndim = 3", "k must be")):
        with pytest.raises(ConfigError, match=match) as err:
            parse_config(f"command = verify\n\n[domain]\nkind = {kind}\n"
                         f"{params}\n")
        assert err.value.line == 4


def test_parse_rejects_nonmonotone_weight_table(tmp_path):
    table = tmp_path / "w.csv"
    table.write_text("0.0,0.0\n1.0,-1.0\n0.5,-2.0\n2.0,-3.0\n")
    with pytest.raises(ConfigError, match="invalid weight table"):
        parse_config(cfg_text(f"""
            command = ball
            radii = 1

            [weight]
            kind = tabulated
            csv = {table}
        """))


def test_parse_tabulated_weight(tmp_path):
    ts = np.linspace(0, 2, 41)
    table = tmp_path / "w.csv"
    table.write_text("\n".join(f"{t},{-0.5 * t}" for t in ts) + "\n")
    cfg = parse_config(cfg_text(f"""
        command = ball
        radii = 1

        [weight]
        kind = tabulated
        csv = {table}
    """))
    assert cfg.weights[0].kind == "tabulated"


def test_parse_dimension_domain_mismatch():
    with pytest.raises(ConfigError, match="dim = 3"):
        parse_config(cfg_text("""
            command = verify

            [space]
            dim = 2

            [domain]
            kind = spheroid
            a = 1
            c = 1
        """))
    with pytest.raises(ConfigError, match="drop 'center'"):
        parse_config(cfg_text("""
            command = verify

            [space]
            dim = 3

            [domain]
            kind = spheroid
            a = 1
            c = 1
            center = 0.1, 0
        """))


def test_ball_table_matches_analytic(tmp_path):
    cfg = parse_config(cfg_text(BALL_CFG + f"""
        [output]
        dir = {tmp_path}/out
        format = both
    """))
    assert run(cfg) == 0
    rows = (tmp_path / "out" / "ball.csv").read_text().strip().splitlines()
    assert rows[0].startswith("# schema:")
    data = [r.split(",") for r in rows[3:]]
    got = {float(r[3]): float(r[4]) for r in data}
    for R, sig in got.items():
        assert sig == pytest.approx(1.0 / R, rel=1e-9)


def test_ball_command_spherical_cap(tmp_path):
    cfg = parse_config(cfg_text(f"""
        command = ball
        radii = 1

        [space]
        curvature = spherical_cap
        dim = 2

        [output]
        dir = {tmp_path}/out
        format = json
    """))
    assert run(cfg) == 0
    payload = json.loads((tmp_path / "out" / "ball.json").read_text())
    import math
    assert payload["results"][0]["sigma1_ball"] == pytest.approx(
        1.0 / math.sin(1.0), rel=1e-8)


def test_spherical_cap_restricted_to_ball_command():
    with pytest.raises(ConfigError, match="spherical-cap"):
        parse_config(cfg_text("""
            command = verify

            [space]
            curvature = spherical_cap

            [domain]
            kind = disk
            radius = 1
        """))


def test_verify_disk_exits_zero(tmp_path):
    cfg = parse_config(cfg_text(f"""
        command = verify

        [space]
        curvature = euclidean
        dim = 2

        [domain]
        kind = disk
        radius = 1

        [mesh]
        rings = 8
        sectors = 64
        levels = 3

        [output]
        dir = {tmp_path}/out
    """))
    assert run(cfg) == 0
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["report"]["status"] == "pass"
    assert abs(report["report"]["gap"]) < 1e-3
    assert report["config"]["tolerances"]["integrator_rtol"] == 1e-10
    assert report["config"]["tolerances"]["eigen_rtol"] == 1e-14


def test_verify_large_disk_is_matched(tmp_path, capsys):
    """No radius cap: the disk of radius 60 under the constant weight is
    matched to its ball, since R_up bounds the walk, and the run writes
    nothing to stderr."""
    cfg = parse_config(cfg_text(f"""
        command = verify

        [domain]
        kind = disk
        radius = 60

        [mesh]
        rings = 6
        sectors = 32

        [output]
        dir = {tmp_path}/out
    """))
    assert run(cfg) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "verify.json").read_text())["report"]
    assert report["status"] == "pass" and report["near_equality"]
    assert 50.0 < report["R"] < 60.0


def test_verify_tabulated_weight_exits_zero(tmp_path):
    """A criterion-4-style table (641 nodes) matches its ball radius."""
    table = tmp_path / "w.csv"
    np.savetxt(table, np.column_stack(oracles.concave_table()), delimiter=",",
               fmt="%.17g")
    cfg = parse_config(cfg_text(f"""
        command = verify

        [weight]
        kind = tabulated
        csv = {table}

        [domain]
        kind = disk
        radius = 1

        [output]
        dir = {tmp_path}/out
    """))
    assert run(cfg) == 0
    report = json.loads((tmp_path / "out" / "verify.json").read_text())["report"]
    assert report["weight"] == "tabulated[641]"
    assert report["status"] == "pass" and report["near_equality"]
    assert report["R"] == pytest.approx(1.0, rel=1e-4)


def test_sweep_inadmissible_weight_exits_one(tmp_path, capsys):
    cfg = parse_config(cfg_text(f"""
        command = sweep

        [weight]
        kind = linear
        a = -1

        [domain]
        kind = disk
        radius = 1

        [output]
        dir = {tmp_path}/out
    """))
    assert run(cfg) == 1
    err = capsys.readouterr().err
    assert "Property I" in err


def test_sweep_nearly_convex_closed_form_exits_one(tmp_path, capsys):
    """phi = -t + 1e-13 t^2 is strictly convex: a closed form gets no
    Property I tolerance, so the sweep fails instead of passing."""
    cfg_path = tmp_path / "convex.cfg"
    cfg_path.write_text(cfg_text("""
        command = sweep

        [weight]
        kind = quadratic
        a = 1
        b = -1e-13

        [domain]
        kind = ellipse
        a = 1.2
        b = 0.8
    """))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    out, err = capsys.readouterr()
    assert "all checks passed" not in out
    assert "sweep run ellipse x -1*t+1e-13*t^2 failed" in err and "Property I" in err


def test_sweep_outputs_are_deterministic(tmp_path):
    body = """
        command = sweep

        [space]
        curvature = euclidean
        dim = 2

        [weight]
        kind = constant

        [weight]
        kind = linear
        a = 0.5

        [domain]
        kind = disk
        radius = 1

        [domain]
        kind = ellipse
        a = 1.2
        b = 0.8333333333333334

        [mesh]
        rings = 6
        sectors = 32
        levels = 2
    """
    cfg = parse_config(cfg_text(body + f"""
        [output]
        dir = {tmp_path}/out
    """))
    outputs = []
    for _ in range(2):
        assert run(cfg) == 0
        files = sorted((tmp_path / "out").glob("*"))
        outputs.append({f.name: f.read_bytes() for f in files})
    a, b = outputs
    assert set(a) == set(b)
    for name in a:
        assert a[name] == b[name], f"{name} differs between identical runs"


def test_sweep_csv_schema(tmp_path):
    cfg = parse_config(cfg_text(f"""
        command = sweep

        [weight]
        kind = constant

        [domain]
        kind = disk
        radius = 1

        [mesh]
        rings = 6
        sectors = 32
        levels = 2

        [output]
        dir = {tmp_path}/out
        format = csv
    """))
    assert run(cfg) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "# schema: steklovw-v1:sweep"
    assert lines[1].startswith("# config: ")
    header = lines[2].split(",")
    assert header == ["domain", "weight", "curvature", "n", "volume", "R",
                      "sigma1_omega", "sigma2_omega", "sigma1_ball",
                      "lhs", "rhs", "gap", "gap_n", "status"]
    assert not (tmp_path / "out" / "sweep_000.json").exists()


def _count_calls(monkeypatch, holder, name) -> list:
    """Patch ``holder.name`` with a wrapper that logs each call."""
    calls, inner = [], getattr(holder, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)
    monkeypatch.setattr(holder, name, counted)
    return calls


TWO_WEIGHTS = """
    [weight]
    kind = constant

    [weight]
    kind = linear
    a = 0.5
"""


@pytest.mark.parametrize("command, dim, domains", [
    ("sweep", 2, "[domain]\nkind = disk\nradius = 1\n\n"
                 "[domain]\nkind = ellipse\na = 1.2\nb = 0.8"),
    ("sweep", 3, "[domain]\nkind = spheroid\na = 1.1\nc = 0.8\n\n"
                 "[domain]\nkind = ball\nradius = 1"),
    ("chain", 2, "[domain]\nkind = ellipse\na = 1.2\nb = 0.8\n\n"
                 "[domain]\nkind = perturbed_disk\nradius = 1\n"
                 "epsilon = 0.05\nk = 2"),
])
def test_runs_mesh_each_domain_once(tmp_path, monkeypatch, command, dim,
                                    domains):
    """sweep and chain build one MeshHierarchy per domain and reuse it for
    every weight, and parsing meshes nothing: k domains give k base meshes.
    The reports equal one library call per (domain, weight)."""
    hierarchies = _count_calls(monkeypatch, steklovw.verify, "mesh_levels")
    base_meshes = _count_calls(monkeypatch, steklovw.mesh2d, "generate_mesh")
    cfg = parse_config(cfg_text(f"""
        command = {command}

        [space]
        dim = {dim}
    """) + cfg_text(TWO_WEIGHTS) + domains + "\n\n" + cfg_text(f"""

        [mesh]
        rings = 4
        sectors = 16
        levels = 2

        [output]
        dir = {tmp_path}/out
        format = json
    """))
    assert run(cfg) == 0
    assert len(hierarchies) == 2
    assert len(base_meshes) == 2

    out = tmp_path / "out"
    if command == "chain":
        got = json.loads((out / "chain.json").read_text())["reports"]
        report = proof_chain_check
    else:
        got = [json.loads((out / f"sweep_{i:03d}.json").read_text())["report"]
               for i in range(4)]
        report = brock_report
    want = [report(dom, cfg.space, w, rings=4, sectors=16, levels=2)
            for dom in cfg.domains for w in cfg.weights]
    assert got == [json.loads(json.dumps(_sanitize(dataclasses.asdict(r))))
                   for r in want]


def test_sweep_mesh_failure_names_the_domain(tmp_path, capsys):
    cfg = parse_config(cfg_text(f"""
        command = sweep

        [domain]
        kind = ellipse
        a = 1.2
        b = 0.8

        [mesh]
        rings = 2
        sectors = 400

        [output]
        dir = {tmp_path}/out
    """))
    assert run(cfg) == 1
    err = capsys.readouterr().err
    assert "sweep run ellipse failed" in err
    assert "minimum triangle angle" in err


def test_sweep_solid_mesh_failure_names_the_domain(tmp_path, capsys):
    """A solid is meshed at run time, like a planar domain: a mesh it cannot
    take fails that run, named, with exit 1."""
    cfg = parse_config(cfg_text(f"""
        command = sweep

        [space]
        dim = 3

        [domain]
        kind = spheroid
        a = 1.1
        c = 0.8

        [mesh]
        sectors = 2

        [output]
        dir = {tmp_path}/out
    """))
    assert run(cfg) == 1
    err = capsys.readouterr().err
    assert "sweep run spheroid failed" in err
    assert "meridian mesh needs sectors >= 4" in err


def test_chain_command(tmp_path):
    cfg = parse_config(cfg_text(f"""
        command = chain

        [weight]
        kind = linear
        a = 0.5

        [domain]
        kind = perturbed_disk
        radius = 1
        epsilon = 0.1
        k = 2

        [mesh]
        rings = 8
        sectors = 64
        levels = 2

        [output]
        dir = {tmp_path}/out
    """))
    assert run(cfg) == 0
    payload = json.loads((tmp_path / "out" / "chain.json").read_text())
    rep = payload["reports"][0]
    assert all(rep["links_passed"].values())


def test_converge_command(tmp_path):
    cfg = parse_config(cfg_text(f"""
        command = converge
        count = 3

        [domain]
        kind = disk
        radius = 1

        [mesh]
        rings = 8
        sectors = 64
        levels = 3

        [output]
        dir = {tmp_path}/out
    """))
    assert run(cfg) == 0
    study = json.loads((tmp_path / "out" / "converge.json").read_text())["study"]
    assert abs(study["extrapolated"][0] - 1.0) < 1e-3


def test_converge_needs_three_levels(tmp_path, capsys):
    """converge runs the levels its config states: 2 is an error, not a
    silent third level."""
    cfg = parse_config(cfg_text(f"""
        command = converge

        [domain]
        kind = disk
        radius = 1

        [mesh]
        rings = 4
        sectors = 16
        levels = 2

        [output]
        dir = {tmp_path}/out
    """))
    assert run(cfg) == 1
    assert "convergence study needs at least 3 levels" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_spectrum_command_planar(tmp_path):
    cfg = parse_config(cfg_text(f"""
        command = spectrum
        count = 5

        [domain]
        kind = disk
        radius = 1

        [mesh]
        rings = 8
        sectors = 64
        levels = 2

        [output]
        dir = {tmp_path}/out
    """))
    assert run(cfg) == 0
    spec = json.loads((tmp_path / "out" / "spectrum.json").read_text())["spectrum"]
    vals = spec["eigenvalues"]
    assert np.allclose(vals, [0, 1, 1, 2, 2, 3], atol=0.02)
    assert spec["metadata"]["identities"]["zero_mode_ratio"] < 1e-8


@pytest.mark.parametrize("command", list(cli._RUNNERS))
def test_every_command_refuses_inadmissible_weight(tmp_path, capsys, command):
    """Property I is a precondition of every command: phi = +t exits 1."""
    cfg = parse_config(cfg_text(f"""
        command = {command}
        radii = 1

        [weight]
        kind = linear
        a = -1

        [domain]
        kind = disk
        radius = 1

        [mesh]
        rings = 2
        sectors = 16

        [output]
        dir = {tmp_path}/out
    """))
    assert run(cfg) == 1
    assert "fails Property I" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_spectrum_command_axisym(tmp_path):
    cfg = parse_config(cfg_text(f"""
        command = spectrum
        count = 4

        [space]
        dim = 3

        [domain]
        kind = ball
        radius = 1

        [mesh]
        rings = 6
        sectors = 24
        levels = 2

        [output]
        dir = {tmp_path}/out
    """))
    assert run(cfg) == 0
    spec = json.loads((tmp_path / "out" / "spectrum.json").read_text())["spectrum"]
    vals = spec["eigenvalues"]
    assert abs(vals[0]) < 1e-9
    assert vals[1] == pytest.approx(1.0, rel=2e-2)
    assert "modes" in spec


def test_spectrum_command_walks_solid_modes(tmp_path):
    """On the oblate spheroid a = 1.5, c = 0.4 at the default mesh, sigma_5
    is mode 3's lowest value: the CSV's last row and the JSON tags say so."""
    cfg = parse_config(cfg_text(f"""
        command = spectrum
        count = 5

        [space]
        dim = 3

        [domain]
        kind = spheroid
        a = 1.5
        c = 0.4

        [output]
        dir = {tmp_path}/out
    """))
    assert run(cfg) == 0
    lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
    assert (rows[-1]["index"], rows[-1]["mode"]) == ("5", "3")
    spec = json.loads((tmp_path / "out" / "spectrum.json").read_text())["spectrum"]
    assert spec["modes"][5] == 3


def test_main_entrypoint(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text(BALL_CFG))
    code = main(["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                 "--format", "json"])
    assert code == 0
    assert (tmp_path / "o" / "ball.json").exists()
    assert "all checks passed" in capsys.readouterr().out


def test_main_reports_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    for text in ("command = ball\nradii = 1\nwhat = no\n",
                 "command = verify\n\n[domain]\nkind = polygon\n"
                 "vertices = 0 0; 1 0; 2 0\n"):
        cfg_path.write_text(text)
        assert main(["--config", str(cfg_path)]) == 1
        assert "config error" in capsys.readouterr().err


def test_readme_library_example_runs(capsys):
    """The README's library example runs as written, so renamed API cannot
    leave it stale; its last three lines are the hierarchy's statuses."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Library use", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-3:] == ["pass"] * 3


def test_readme_config_key_table_matches_parser():
    """The README's key table lists exactly the keys the parser accepts, so
    no key can be added, or stay, without its row."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1:4] for line in block.splitlines()
            if line.startswith("|")][2:]
    table = {(sec.strip(), kind.strip().strip("`")):
             set(re.findall(r"`(\w+)`", keys)) for sec, kind, keys in rows}
    expected = {("top level", ""): cli._TOP_KEYS,
                ("`[space]`", ""): cli._SPACE_KEYS,
                ("`[mesh]`", ""): cli._MESH_KEYS,
                ("`[output]`", ""): cli._OUTPUT_KEYS}
    expected.update({("`[weight]`", kind): set(keys)
                     for kind, keys in cli._WEIGHT_KINDS.items()})
    planar = {2: {"center"}, 3: set()}      # 'center' on every planar kind
    expected.update({("`[domain]`", kind): set(keys) | planar[dim]
                     for kind, (_, dim, keys) in cli._DOMAIN_KINDS.items()})
    assert len(rows) == len(table)
    assert table == expected


def test_readme_example_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block)
    assert cfg.command == "sweep"
    assert [d.kind for d in cfg.domains] == ["ellipse", "perturbed_disk"]
    assert [w.kind for w in cfg.weights] == ["constant", "quadratic"]
