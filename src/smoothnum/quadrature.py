"""Fixed Gauss-Legendre rules on panels that the caller lays out from what
it knows of the integrand (its scale, its kinks), so the work is set by
the panel count, never by the integrand's values."""

import functools

import numpy as np


@functools.lru_cache(maxsize=16)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def panel_sum(f, a: np.ndarray, width: np.ndarray, n_nodes: int):
    """sum_i width_i sum_j w_j f(a_i + width_i x_j), with the n_nodes-point
    Gauss-Legendre nodes x_j and weights w_j on [0, 1].  f is called once,
    on the (panels, n_nodes) array of nodes; the sums run along each
    panel first, then across the panels."""
    xg, wg = gauss_legendre(n_nodes)
    vals = f(a[:, None] + width[:, None] * xg)
    return np.add.reduce(np.add.reduce(vals * wg, axis=1) * width)
