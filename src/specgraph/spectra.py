"""Symmetric eigenvalues as a descending spectrum.

Eigenvalues come from LAPACK's symmetric eigensolver through
numpy.linalg.eigvalsh and are returned descending.  They are only
reported: verify decides every verdict by exact root counts on a
characteristic polynomial.  The last digits of an eigenvalue may differ
between numpy/BLAS builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAPER_TOL = 5e-5


@dataclass(frozen=True)
class Spectrum:
    """Descending-sorted real eigenvalues."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        for a, b in zip(vals, vals[1:]):
            if a < b:
                raise ValueError("eigenvalues must be sorted descending")

    @property
    def n(self) -> int:
        return len(self.values)

    def nth(self, i: int) -> float:
        """1-based indexed eigenvalue, largest first."""
        if not 1 <= i <= self.n:
            raise IndexError(f"eigenvalue index {i} outside 1..{self.n}")
        return self.values[i - 1]


def eigenvalues_sym(matrix) -> Spectrum:
    """Eigenvalues of a symmetric matrix, descending."""
    A = np.array(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if np.max(np.abs(A - A.T), initial=0.0) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12")
    return Spectrum(tuple(np.linalg.eigvalsh(A)[::-1].tolist()))
