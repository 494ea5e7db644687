"""Shared qubit operators and distinguished states."""

from __future__ import annotations

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SMINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
EYE2 = np.eye(2, dtype=complex)


def bell_vectors() -> list[np.ndarray]:
    """The four Bell vectors, Phi+ first."""
    s = 1.0 / np.sqrt(2.0)
    phi_p = s * np.array([1, 0, 0, 1], dtype=complex)
    phi_m = s * np.array([1, 0, 0, -1], dtype=complex)
    psi_p = s * np.array([0, 1, 1, 0], dtype=complex)
    psi_m = s * np.array([0, 1, -1, 0], dtype=complex)
    return [phi_p, phi_m, psi_p, psi_m]


def broadcast_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the matrices on the last two axes of a and b, entry by entry,
    broadcast over their leading axes: one product for whole stacks."""
    p = a[..., :, None, :, None] * b[..., None, :, None, :]
    return p.reshape(*p.shape[:-4], p.shape[-4] * p.shape[-3], p.shape[-2] * p.shape[-1])


def two_qubit_paulis() -> np.ndarray:
    """The 15 tensor products of single-qubit Paulis other than I⊗I, as a
    (15, 4, 4) stack in the order np.kron(a, b) for a, then b, in I, X, Y, Z."""
    s = np.stack([EYE2, SX, SY, SZ])
    return broadcast_kron(s[:, None], s[None, :]).reshape(16, 4, 4)[1:]


def single_qubit_probe_vectors() -> list[np.ndarray]:
    """|0>, |1>, |+>, |+i>: a tomographically spread set of pure states."""
    s = 1.0 / np.sqrt(2.0)
    return [
        np.array([1.0, 0.0], dtype=complex),
        np.array([0.0, 1.0], dtype=complex),
        s * np.array([1.0, 1.0], dtype=complex),
        s * np.array([1.0, 1.0j], dtype=complex),
    ]
