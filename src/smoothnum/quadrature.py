"""Gauss-Legendre helpers shared by the integral-heavy modules."""

import functools

import numpy as np

_TOL_REL = 1e-13
_MAX_DEPTH = 28


@functools.lru_cache(maxsize=16)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def adaptive_complex(f):
    """Adaptively integrate a complex-valued f over [0, 1].

    Bisects until a 20-point rule agrees with its two-half refinement to
    _TOL_REL of the whole integral, or _MAX_DEPTH levels down.
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
        if abs(fine - coarse) <= _TOL_REL * scale or depth >= _MAX_DEPTH:
            return fine
        return recurse(a, mid, left, depth + 1) + recurse(mid, b, right, depth + 1)

    return recurse(0.0, 1.0, whole, 0)
