"""Gauss-Legendre rules for the mollifier's tables and the continuum kernels."""

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
