"""Entanglement quantifiers and the {interior of S, boundary of S, E} trichotomy.

For two qubits positivity of the partial transpose decides separability,
so the signed minimum PT eigenvalue ("margin") is the single continuous
quantity whose sign locates a state relative to the separable set:
strictly positive margin means a whole PPT neighborhood (deeply
separable), strictly negative means entangled, and zero means arbitrarily
small perturbations flip the verdict (boundary).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import SY
from .states import QState, check_positive, partial_transpose, transpose_b

DEFAULT_REGION_TOL = 1e-9

_SYSY = np.kron(SY, SY)


@dataclass(frozen=True)
class Region:
    """Where a state sits relative to the separable set."""

    tag: str  # deep_separable | boundary | entangled
    margin: float
    tol: float


def min_pt_eigenvalue(s: QState) -> float:
    """Minimum eigenvalue of the partial transpose (on B); negative iff NPT."""
    return float(np.linalg.eigvalsh(partial_transpose(s, "B"))[0])


def min_pt_eigenvalues(matrices: np.ndarray) -> np.ndarray:
    """``min_pt_eigenvalue`` of every state of an (N, 4, 4) stack, from one
    stacked partial transpose on B and one stacked eigensolve."""
    return np.linalg.eigvalsh(transpose_b(matrices))[:, 0]


def concurrence(s: QState) -> float:
    """Wootters concurrence of a two-qubit state, in [0, 1]."""
    rho = s.matrix
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    # the Wootters lambdas are the singular values of sqrt(rho) Y sqrt(rho)^T
    # with Y = sigma_y x sigma_y; the SVD form avoids squaring the spectrum
    lams = np.linalg.svd(sqrt_rho @ _SYSY @ sqrt_rho.T, compute_uv=False)
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))


def classify_region(s: QState, tol: float = DEFAULT_REGION_TOL) -> Region:
    """Trichotomy by the sign of the PT margin; ties at |margin| = tol
    classify as boundary."""
    check_positive("tol", tol)
    margin = min_pt_eigenvalue(s)
    if margin < -tol:
        tag = "entangled"
    elif margin > tol:
        tag = "deep_separable"
    else:
        tag = "boundary"
    return Region(tag=tag, margin=margin, tol=tol)
