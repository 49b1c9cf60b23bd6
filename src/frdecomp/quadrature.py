"""Gauss-Legendre rules, including the log-scale rules for integrals dt/t."""

from functools import lru_cache

import numpy as np


def _legendre(n, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence, for |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=64)
def _leggauss(n):
    """Gauss-Legendre nodes and weights on [-1, 1], ascending.

    Newton's method on P_n from the guesses cos(pi (k - 1/4) / (n + 1/2)) finds
    the roots in [0, 1); the rule is mirrored about 0, so the nodes are
    exactly antisymmetric and the weights 2 / ((1 - x^2) P_n'(x)^2) symmetric.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"a Gauss-Legendre rule needs n >= 1 nodes, got {n}")
    half = n // 2
    x = np.cos(np.pi * (np.arange(1, n - half + 1) - 0.25) / (n + 0.5))
    x[half:] = 0.0  # the middle root of odd n
    while True:
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        # the error after a step is about c step^2 with c = x / (1 - x^2) <= n^2 / 5
        # at the roots (Legendre's equation), so a step below 1e-9 / n leaves x
        # at roundoff
        if float(np.max(np.abs(step))) < 1e-9 / n:
            break
    w = 2.0 / ((1.0 - x) * (1.0 + x) * _legendre(n, x)[1] ** 2)
    return (np.concatenate([-x[:half], x[half:], x[:half][::-1]]),
            np.concatenate([w[:half], w[half:], w[:half][::-1]]))


def gauss_legendre(a, b, n):
    """Nodes and weights for integrating f over [a, b]."""
    if not b > a:
        raise ValueError(f"empty interval [{a}, {b}]")
    g, w = _leggauss(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * g, half * w


def log_gauss_legendre(t_lo, t_hi, nodes_per_octave=16):
    """Panel rule in u = log t for integrals of the form int f(t) dt/t.

    Returns nodes t_q and weights w_q with int_{t_lo}^{t_hi} f(t) dt/t
    ~= sum_q w_q f(t_q).  One Gauss-Legendre panel of nodes_per_octave
    nodes per started octave, its nodes consecutive in the result; the
    panel count tolerates roundoff in log(t_hi / t_lo), so an exact octave
    is one panel.  The scale integrands oscillate in log t, so the
    per-octave node count controls the accuracy of the continuous family's
    scale integrals.
    """
    if not (t_lo > 0 and t_hi > t_lo):
        raise ValueError(f"invalid scale interval [{t_lo}, {t_hi}]")
    u_lo, u_hi = np.log(t_lo), np.log(t_hi)
    n_panels = max(1, int(np.ceil((u_hi - u_lo) / np.log(2.0) - 1e-9)))
    edges = np.linspace(u_lo, u_hi, n_panels + 1)
    ts, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        u, w = gauss_legendre(a, b, nodes_per_octave)
        ts.append(np.exp(u))
        ws.append(w)
    return np.concatenate(ts), np.concatenate(ws)
