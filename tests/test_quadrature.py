import numpy as np
import pytest

from frdecomp.quadrature import _leggauss, log_gauss_legendre


@pytest.mark.parametrize("n, tol", [(4, 1e-14), (16, 1e-14), (24, 1e-14),
                                    (96, 1e-14), (256, 1e-13)])
def test_rule_matches_numpy_leggauss(n, tol):
    nodes, weights = _leggauss(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=tol)
    np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=tol)


@pytest.mark.parametrize("n", [300, 3000, 6000])
def test_rule_matches_scipy_roots_legendre(n):
    # the sizes the mollifier tests integrate with
    from scipy.special import roots_legendre
    nodes, weights = _leggauss(n)
    ref_nodes, ref_weights = roots_legendre(n)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=4e-16)
    # scipy's weights next to +-1 are off by up to 1.7e-6 of their size at
    # n = 6000 (a long-double recurrence agrees with these to 2e-11)
    np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-12)
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])
    assert np.all(np.diff(nodes) > 0)
    assert abs(weights.sum() - 2.0) <= 1e-14


@pytest.mark.parametrize("n", [0, -3])
def test_rule_refuses_no_nodes(n):
    with pytest.raises(ValueError, match="n >= 1"):
        _leggauss(n)


@pytest.mark.parametrize("j", range(-2, 12))
def test_exact_octave_is_one_panel(j):
    nodes, weights = log_gauss_legendre(2.0 ** (j - 1), 2.0**j, 16)
    assert len(nodes) == 16
    assert np.sum(weights) == pytest.approx(np.log(2.0), rel=1e-14)


def test_panels_per_started_octave():
    # the default weights window [1e-3, 1e3] spans 19.93 octaves: 20 panels
    assert len(log_gauss_legendre(1e-3, 1e3, 16)[0]) == 20 * 16
    assert len(log_gauss_legendre(1.0, 2.0 * (1.0 + 1e-6), 8)[0]) == 16
