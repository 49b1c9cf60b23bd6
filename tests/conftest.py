import numpy as np
import pytest

from frdecomp.lattice import stencil_coefficients
from frdecomp.mollifier import (BumpProfile, build_mollifier, default_mollifier,
                                normalization_constant)
from frdecomp.weights import ContinuousWeightFamily, DiscreteWeightFamily


def exp_bump(beta=1.0, half_width=0.5):
    """Admissible bump exp(-beta/(hw^2 - s^2)); beta=1 is the package default."""
    r2 = half_width * half_width

    def eval_bump(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        inside = np.abs(s) < half_width
        si = s[inside]
        out[inside] = np.exp(-beta / (r2 - si * si))
        return out

    return BumpProfile(half_width=half_width, eval=eval_bump)


def circulant_matrix(column):
    """Unfold a torus column into the n x n matrix M[x, y] = column[x - y]."""
    shape = column.shape
    coords = np.unravel_index(np.arange(column.size), shape)
    return column[tuple((c[:, None] - c[None, :]) % size
                        for c, size in zip(coords, shape))]


def stencil_operator(spec):
    """The torus operator as a sparse matrix assembled from its real-space
    stencil, the sparse-LU reference for green_column.  Every row holds the
    same stencil_coefficients, so L commutes exactly with lattice shifts."""
    import scipy.sparse as sp
    stencil = stencil_coefficients(spec)
    n = spec.size
    idx = np.arange(n).reshape(spec.shape)
    axes = tuple(range(spec.d))
    # row x couples to column x + offset
    cols = [np.roll(idx, tuple(-o for o in offset), axis=axes).ravel()
            for offset in stencil]
    vals = [np.full(n, v) for v in stencil.values()]
    return sp.csc_matrix((np.concatenate(vals),
                          (np.tile(idx.ravel(), len(stencil)), np.concatenate(cols))),
                         shape=(n, n))


@pytest.fixture(scope="session")
def mollifier():
    return default_mollifier()


@pytest.fixture(scope="session")
def norm1(mollifier):
    return normalization_constant(mollifier)


@pytest.fixture(scope="session")
def cont_family(mollifier, norm1):
    return ContinuousWeightFamily(mollifier, norm1)


@pytest.fixture(scope="session")
def disc_family(mollifier, norm1):
    return DiscreteWeightFamily(mollifier, norm1)


@pytest.fixture(scope="session")
def narrow_mollifier():
    # Spatially narrower phi: the scale window t in [4, 32] of the decay and
    # gap measurements is asymptotic for this profile (see decisions notes).
    return build_mollifier(exp_bump(beta=0.35))


@pytest.fixture(scope="session")
def narrow_norm(narrow_mollifier):
    return normalization_constant(narrow_mollifier)
