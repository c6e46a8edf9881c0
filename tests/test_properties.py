"""Invariances of the radial solve and of the whole report checked as
properties on random inputs."""
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from steklovw.geometry import (AdmissibilityError, Curvature, RadialWeight,
                               SpaceForm, validate_property_i)
from steklovw.mesh2d import Domain2D, MeridianDomain
from steklovw.radial import solve_mode
from steklovw.verify import brock_report
from oracles import concave_table

E2 = SpaceForm(Curvature.EUCLIDEAN, 2)
E3 = SpaceForm(Curvature.EUCLIDEAN, 3)
H2 = SpaceForm(Curvature.HYPERBOLIC, 2)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(form=st.sampled_from([E2, E3]),
       a=st.floats(0.0, 2.0), b=st.floats(0.0, 1.0),
       R=st.floats(0.3, 2.0), t=st.floats(0.5, 2.0),
       mode=st.integers(1, 3))
def test_euclidean_scaling_law(form, a, b, R, t, mode):
    """beta(t R; phi(./t)) = beta(R; phi) / t: phi(s/t) = -(a/t) s - (b/t^2) s^2."""
    beta = solve_mode(form, RadialWeight.quadratic(a, b), mode, R).beta
    scaled = solve_mode(form, RadialWeight.quadratic(a / t, b / t ** 2),
                        mode, t * R).beta
    assert scaled == pytest.approx(beta / t, rel=1e-10)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(c=st.floats(0.0, 1.0),
       knots=st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3),
       slopes=st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3))
def test_property_i_on_random_admissible_tables(c, knots, slopes):
    """A criterion-4-style table, phi = -int g with the non-decreasing slope
    g = c + sum s_i (t - k_i)_+ >= 0, passes Property I; adding 0.01 t^2
    makes it convex on [0, 0.1], where g is constant, and fails it."""
    ts = np.linspace(0.0, 1.25, 641)
    g = c + sum(s * np.maximum(ts - k, 0.0) for k, s in zip(knots, slopes))
    phi = -cumulative_trapezoid(g, ts, initial=0.0)
    validate_property_i(RadialWeight.tabulated(ts, phi), 1.25)
    with pytest.raises(AdmissibilityError, match="Property I"):
        validate_property_i(RadialWeight.tabulated(ts, phi + 0.01 * ts ** 2),
                            1.25)


# ---------------------------------------------------------------------------
# invariances of the whole report on coarse meshes
# ---------------------------------------------------------------------------

REPORT = settings(max_examples=4, deadline=None, derandomize=True, database=None)
WEIGHTS = st.builds(RadialWeight.quadratic, st.floats(0.0, 1.0),
                    st.floats(0.0, 0.5))


def _same_report(a, b):
    """Per-level eigenvalues, matched radius and gap agree to 1e-12."""
    np.testing.assert_allclose(a.sigma_levels, b.sigma_levels,
                               rtol=1e-12, atol=1e-12)
    assert a.R == pytest.approx(b.R, rel=1e-12, abs=0.0)
    assert a.gap == pytest.approx(b.gap, rel=1e-12, abs=1e-12)


def _report(dom, form, w, levels):
    return brock_report(dom, form, w, rings=4, sectors=64, levels=levels)


@REPORT
@given(form=st.sampled_from([E2, H2]), a=st.floats(0.3, 0.6),
       b=st.floats(0.3, 0.6), w=WEIGHTS, levels=st.integers(1, 2))
def test_rotation_equivariance(form, a, b, w, levels):
    """ellipse(b, a) is ellipse(a, b) turned a quarter, which maps the
    64-ray fan onto itself; a radial weight does not see the turn."""
    _same_report(_report(Domain2D.ellipse(a, b), form, w, levels),
                 _report(Domain2D.ellipse(b, a), form, w, levels))


@REPORT
@given(cx=st.floats(-0.5, 0.5), cy=st.floats(-0.5, 0.5),
       c=st.floats(-1.0, 1.0), levels=st.integers(1, 2))
def test_constant_weight_translation_invariance(cx, cy, c, levels):
    w = RadialWeight.constant(c)
    _same_report(_report(Domain2D.disk(1.0), E2, w, levels),
                 _report(Domain2D.disk(1.0, center=(cx, cy)), E2, w, levels))


@REPORT
@given(form=st.sampled_from([E2, H2]),
       w=WEIGHTS | st.builds(lambda *g: RadialWeight.tabulated(*concave_table(201, 2.5, *g)),
                             st.floats(0.0, 1.0), st.floats(0.1, 1.0), st.floats(0.0, 1.0)),
       c=st.floats(-2.0, 2.0), levels=st.integers(1, 2))
def test_constant_shift_invariance(form, w, c, levels):
    """phi + c scales both sides of every pencil and both volumes by e^-c,
    for a closed form and a table alike: c moves the value at the start of
    every piece."""
    dom = Domain2D.ellipse(0.5, 0.4)
    _same_report(_report(dom, form, w, levels),
                 _report(dom, form, replace(w, grid_phi=w.grid_phi + c), levels))


@pytest.mark.parametrize("form, ball, radii", [
    (E2, Domain2D.disk, (0.2, 2.0)),
    (H2, Domain2D.disk, (0.1, 0.55)),
    (E3, MeridianDomain.ball, (0.2, 2.0))], ids=["E2", "H2", "E3"])
@REPORT
@given(data=st.data(), w=WEIGHTS)
def test_centred_ball_is_near_equality(form, ball, radii, data, w):
    """A ball centred at the weight origin is the equality case: its report
    passes and flags near-equality at the default mesh.  The H2 radii are
    those of the standard hyperbolic family; the false violations of
    centred H2 disks near |x| = 0.97, where the mesh volume overestimates
    the conformal density, lie outside this range and are not covered."""
    r = data.draw(st.floats(*radii), label="radius")
    rep = brock_report(ball(r), form, w, levels=3)
    assert rep.status == "pass"
    assert rep.near_equality
