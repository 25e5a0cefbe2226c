"""Quasi-permutation pattern of the continued monodromy matrices.

A quasi-permutation matrix has exactly one nonzero entry in every row and
every column.  Every monodromy of the 2x2 solution must have this pattern;
this module checks it and reads off the sheet map and the nonzero entries.
"""

from __future__ import annotations

import numpy as np

from .errors import NotQuasiPermutation

TOL_ZERO = 1e-12  # relative threshold separating zero from nonzero entries


def validate_quasi_perm(matrix, tol_zero=TOL_ZERO):
    """Check the quasi-permutation pattern of a square matrix.

    Entries are compared against ``tol_zero`` times the largest modulus in
    the matrix, so the test is scale invariant.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix.
    tol_zero : float
        Relative threshold below which an entry counts as zero.

    Returns
    -------
    sigma : tuple of int
        Sheet map, ``matrix[j, sigma[j]]`` is the nonzero entry of row ``j``.
    values : ndarray
        The nonzero entries, ``values[j] = matrix[j, sigma[j]]``.

    Raises
    ------
    NotQuasiPermutation
        If any row or column has zero or several entries above threshold.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotQuasiPermutation(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    scale = np.max(np.abs(m)) if n else 0.0
    if scale == 0.0:
        raise NotQuasiPermutation("zero matrix")
    mask = np.abs(m) > tol_zero * scale
    if not (mask.sum(axis=0) == 1).all() or not (mask.sum(axis=1) == 1).all():
        raise NotQuasiPermutation(
            "matrix does not have exactly one nonzero entry per row and column"
        )
    sigma = tuple(int(np.nonzero(mask[j])[0][0]) for j in range(n))
    values = m[np.arange(n), list(sigma)]
    return sigma, values
