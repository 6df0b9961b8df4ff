import numpy as np
import pytest

from abreu_bvp import (
    NonexistenceCertificate,
    OneDProblem,
    existence_threshold_1d,
    solve_exact_1d,
)


def test_trivial_interval():
    sol = solve_exact_1d(OneDProblem((0.0, 1.0), 0.0, 0.0))
    x = sol.u.grid.points[:, 0]
    assert np.max(np.abs(sol.w.values - 1.0)) < 1e-12
    assert np.max(np.abs(sol.u.values - 0.5 * (x**2 - x))) < 1e-8


def test_quadratic_w_closed_form():
    sol = solve_exact_1d(OneDProblem((0.0, 1.0), 0.0, 4.0), resolution=2001)
    x = sol.u.grid.points[:, 0]
    wref = 1.0 + 2.0 * x * (x - 1.0)
    assert np.max(np.abs(sol.w.values - wref)) < 1e-12
    assert np.min(sol.w.values) == pytest.approx(0.5, abs=1e-6)
    # u'' = 1/w: value at the midpoint from direct quadrature
    mid = np.argmin(np.abs(sol.u.grid.points[:, 0] - 0.5))
    assert sol.u.values[mid] < 0.0
    # rounding in the second difference scales like eps/h^2
    assert sol.el_residual_norm < 1e-8


def test_source_as_callable_and_array():
    base = solve_exact_1d(OneDProblem((0.0, 1.0), 0.0, 4.0), resolution=801)
    from_fn = solve_exact_1d(OneDProblem((0.0, 1.0), 0.0, lambda x: 4.0 + 0 * x),
                             resolution=801)
    assert np.max(np.abs(base.w.values - from_fn.w.values)) < 1e-14
    arr = np.full(801, 4.0)
    from_arr = solve_exact_1d(OneDProblem((0.0, 1.0), 0.0, arr), resolution=801)
    assert np.max(np.abs(base.w.values - from_arr.w.values)) < 1e-14


def test_nonexistence_certificate():
    out = solve_exact_1d(OneDProblem((0.0, 1.0), 0.0, 9.0))
    assert isinstance(out, NonexistenceCertificate)
    # min w = 1 - 9/8 at the midpoint
    assert out.min_w == pytest.approx(-0.125, abs=1e-6)
    assert out.argmin == pytest.approx(0.5, abs=1e-3)
    assert "no strictly convex solution" in out.message


def test_existence_is_sharp_at_eight():
    sol = solve_exact_1d(OneDProblem((0.0, 1.0), 0.0, 7.9), resolution=4001)
    assert not isinstance(sol, NonexistenceCertificate)
    out = solve_exact_1d(OneDProblem((0.0, 1.0), 0.0, 8.1), resolution=4001)
    assert isinstance(out, NonexistenceCertificate)


def test_threshold_bisection_unit_interval():
    t = existence_threshold_1d(1.0, OneDProblem((0.0, 1.0), 0.0, 0.0),
                               (0.0, 32.0))
    assert t == pytest.approx(8.0, abs=1e-12)


def test_threshold_scales_with_psi():
    t = existence_threshold_1d(
        1.0, OneDProblem((0.0, 1.0), 0.0, 0.0, psi=(2.0, 2.0)), (0.0, 64.0))
    assert t == pytest.approx(16.0, abs=1e-12)


def test_threshold_scales_with_length():
    t = existence_threshold_1d(1.0, OneDProblem((0.0, 2.0), 0.0, 0.0),
                               (0.0, 32.0))
    assert t == pytest.approx(2.0, abs=1e-12)


def test_threshold_requires_bracketing():
    with pytest.raises(ValueError):
        existence_threshold_1d(1.0, OneDProblem((0.0, 1.0), 0.0, 0.0),
                               (0.0, 4.0))  # no sign change by c = 4
    with pytest.raises(ValueError):
        # min w > 0 on an interval around c = 0, and the range holds both ends
        existence_threshold_1d(lambda x: x - 0.5,
                               OneDProblem((0.0, 1.0), 0.0, 0.0),
                               (-1e3, 1e3))


def test_problem_validation():
    with pytest.raises(ValueError):
        OneDProblem((1.0, 0.0), 0.0, 0.0)
    with pytest.raises(ValueError):
        OneDProblem((0.0, 1.0), 0.0, 0.0, psi=(1.0, 0.0))
    with pytest.raises(ValueError):
        OneDProblem((0.0, 1.0), 1.2, 0.0)  # theta outside [0, 1)
    with pytest.raises(ValueError):
        solve_exact_1d(OneDProblem((0.0, 1.0), 0.0, 0.0), resolution=3)


@pytest.mark.parametrize("phi", [(0.0,), (0.0, 1.0, 2.0), (np.nan, 0.0),
                                 (0.0, np.inf)])
def test_phi_must_be_two_finite_values(phi):
    # one value passed before, and solve_exact_1d then raised IndexError
    with pytest.raises(ValueError, match="phi"):
        OneDProblem((0.0, 1.0), 0.0, 1.0, phi=phi)


@pytest.mark.parametrize("psi", [(np.nan, 1.0), (1.0, np.inf), (1.0,),
                                 (-1.0, 1.0)])
def test_psi_must_be_two_positive_finite_values(psi):
    # min(psi) <= 0 is false for NaN, so a NaN psi passed before
    with pytest.raises(ValueError, match="psi"):
        OneDProblem((0.0, 1.0), 0.0, 1.0, psi=psi)


def test_asymmetric_psi_tilts_the_minimum():
    sol = solve_exact_1d(OneDProblem((0.0, 1.0), 0.0, 4.0, psi=(1.0, 3.0)),
                         resolution=2001)
    x = sol.u.grid.points[:, 0]
    # w = homogeneous tilt + particular quadratic
    wref = 1.0 + 2.0 * x + 2.0 * x * (x - 1.0)
    assert np.max(np.abs(sol.w.values - wref)) < 1e-12
