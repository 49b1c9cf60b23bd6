import numpy as np
import pytest

from frdecomp.quadrature import _leggauss


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
