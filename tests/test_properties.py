"""Invariances of the radial solve checked as properties on random inputs."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from steklovw.geometry import Curvature, RadialWeight, SpaceForm
from steklovw.radial import solve_mode

E2 = SpaceForm(Curvature.EUCLIDEAN, 2)
E3 = SpaceForm(Curvature.EUCLIDEAN, 3)


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
