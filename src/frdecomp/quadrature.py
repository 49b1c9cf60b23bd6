"""Gauss-Legendre rules, including the log-scale rules for integrals dt/t."""

from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre


@lru_cache(maxsize=64)
def _leggauss(n):
    """Gauss-Legendre nodes and weights on [-1, 1], ascending."""
    return roots_legendre(int(n))


def gauss_legendre(a, b, n):
    """Nodes and weights for integrating f over [a, b]."""
    if not b > a:
        raise ValueError(f"empty interval [{a}, {b}]")
    g, w = _leggauss(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * g, half * w


def log_gauss_legendre(t_lo, t_hi, nodes_per_octave=16, min_panels=1):
    """Panel rule in u = log t for integrals of the form int f(t) dt/t.

    Returns nodes t_q and weights w_q with int_{t_lo}^{t_hi} f(t) dt/t
    ~= sum_q w_q f(t_q).  One Gauss-Legendre panel per octave, its
    nodes_per_octave nodes consecutive in the result; the scale
    integrands oscillate in log t, so the per-octave node count controls
    the accuracy of every scale integral in the package.
    """
    if not (t_lo > 0 and t_hi > t_lo):
        raise ValueError(f"invalid scale interval [{t_lo}, {t_hi}]")
    u_lo, u_hi = np.log(t_lo), np.log(t_hi)
    n_panels = max(int(min_panels), int(np.ceil((u_hi - u_lo) / np.log(2.0))))
    edges = np.linspace(u_lo, u_hi, n_panels + 1)
    ts, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        u, w = gauss_legendre(a, b, nodes_per_octave)
        ts.append(np.exp(u))
        ws.append(w)
    return np.concatenate(ts), np.concatenate(ws)
