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
