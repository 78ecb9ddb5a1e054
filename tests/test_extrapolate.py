import numpy as np
import pytest

from apvint.extrapolate import richardson_zero

HS = 0.5 ** np.arange(1, 8)


@pytest.mark.parametrize("coeffs", [
    [2.0 - 1.0j],
    [1.0 + 0.5j, -3.0j],
    [0.25, 2.0 + 1.0j, -1.5],
    [-1.0 + 2.0j, 0.5, 3.0 - 1.0j, -4.0j],
])
def test_exact_on_low_degree_polynomials(coeffs):
    ys = np.polynomial.polynomial.polyval(HS, np.array(coeffs))
    out = richardson_zero(HS, ys)
    assert abs(out.value - coeffs[0]) <= 1e-12
    assert not out.diverged


@pytest.mark.parametrize("hs, ys", [
    ([], []),
    ([1.0, 0.5], [1.0]),
    ([1.0, 0.0], [1.0, 2.0]),
    ([1.0, -0.5], [1.0, 2.0]),
    ([0.5, 1.0], [1.0, 2.0]),
    ([1.0, 1.0], [1.0, 2.0]),
])
def test_invalid_samples_rejected(hs, ys):
    with pytest.raises(ValueError):
        richardson_zero(hs, ys)


def test_tail_moving_away_is_diverged():
    # a noisy head settles the table near 0.02 with an estimate of 0.17, and
    # then the last three samples run away from it tenfold per step
    out = richardson_zero(HS, [1.0, -1.0, 1.0, 0.0, 0.01, 0.1, 1.0])
    assert out.diverged


def test_samples_growing_without_bound_are_diverged():
    # y = 1/h: the table settles nowhere, and the last three samples run
    # away from its best entry (6, err 6), the last to twenty times its error
    out = richardson_zero(HS, 1 / HS)
    assert out.diverged


def test_rounding_noise_on_an_exact_fit_is_not_diverged():
    # an exact fit (err_estimate 0) whose last samples drift by one ulp a step
    out = richardson_zero(HS, 1.0 + np.array([0, 0, 0, 0, 1, 2, 3]) * np.spacing(1.0))
    assert out.err_estimate == 0.0
    assert not out.diverged
