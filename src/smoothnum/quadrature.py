"""Gauss-Legendre helpers shared by the integral-heavy modules."""

import functools

import numpy as np


@functools.lru_cache(maxsize=16)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def adaptive_complex(f, tol_rel: float = 1e-13, max_depth: int = 28):
    """Adaptively integrate a complex-valued f over [0, 1].

    Bisects until a 20-point rule agrees with its two-half refinement.
    f must accept an ndarray of nodes in (0, 1).
    """
    nodes, weights = gauss_legendre(20)

    def rule(a: float, b: float) -> complex:
        return (b - a) * np.sum(weights * f(a + (b - a) * nodes))

    whole = rule(0.0, 1.0)
    scale = max(abs(whole), 1e-290)

    def recurse(a: float, b: float, coarse: complex, depth: int) -> complex:
        mid = 0.5 * (a + b)
        left = rule(a, mid)
        right = rule(mid, b)
        fine = left + right
        if abs(fine - coarse) <= tol_rel * scale or depth >= max_depth:
            return fine
        return recurse(a, mid, left, depth + 1) + recurse(mid, b, right, depth + 1)

    return recurse(0.0, 1.0, whole, 0)
