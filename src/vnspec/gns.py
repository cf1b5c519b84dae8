"""GNS representation of a tracial system.

The Hilbert space carries the inner product <a Omega, b Omega> = mu(a* b);
coordinates come from a Cholesky factorization of the Gram matrix over the
algebra basis.  The modular conjugation J is antilinear and is stored as a
complex matrix applied after entrywise conjugation: J x = K conj(x).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import DEFAULT_TOL, Subsystem, ToleranceConfig, WStarSystem
from .errors import TraceNotFaithful


@dataclass(frozen=True)
class GnsSpace:
    """GNS data: cyclic vector, left action, modular conjugation, dynamics."""
    system: WStarSystem
    to_vector: np.ndarray    # (dim, d): algebra coords -> H coords, a -> a Omega
    omega: np.ndarray        # coordinates of Omega = 1 Omega
    left_mats: np.ndarray    # (d, dim, dim), left multiplication per basis element
    conj_matrix: np.ndarray  # K with J x = K conj(x)
    u_matrix: np.ndarray     # unitary implementing the dynamics

    def __post_init__(self):
        for a in (self.to_vector, self.omega, self.left_mats,
                  self.conj_matrix, self.u_matrix):
            a.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.to_vector.shape[0]

    def left(self, mat: np.ndarray) -> np.ndarray:
        """Matrix of left multiplication by an algebra element."""
        c = self.system.algebra.coords(mat)
        return np.tensordot(c, self.left_mats, axes=(0, 0))

    def apply_j(self, x: np.ndarray) -> np.ndarray:
        """Modular conjugation applied to a vector."""
        return self.conj_matrix @ x.conj()

    def j_op(self, op: np.ndarray) -> np.ndarray:
        """j(op) = J op* J as a linear matrix, for any operator on H or a
        stack of them."""
        return self.conj_matrix @ np.swapaxes(op, -1, -2) @ self.conj_matrix.conj()


def gns_map(gram: np.ndarray, dynamics: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinates of L2 for a positive definite Gram matrix.

    Returns the map a -> a Omega (the adjoint of the Cholesky factor of the
    Hermitian part of the Gram matrix), its inverse, and the dynamics matrix
    conjugated into a unitary on L2.  The caller checks faithfulness.
    """
    to_vec = np.linalg.cholesky((gram + gram.conj().T) / 2).conj().T
    from_vec = np.linalg.inv(to_vec)
    return to_vec, from_vec, to_vec @ dynamics @ from_vec


def build_gns(system: WStarSystem, tol: ToleranceConfig = DEFAULT_TOL) -> GnsSpace:
    alg = system.algebra
    gram = (system.gram + system.gram.conj().T) / 2
    if np.linalg.eigvalsh(gram).min() < tol.eps_rank:
        raise TraceNotFaithful("Gram matrix is singular; trace is not faithful")
    to_vec, from_vec, u_mat = gns_map(system.gram, system.dynamics.matrix)
    omega = to_vec @ alg.coords(alg.identity())
    # column j of table[i].T holds coords(b_i b_j); star[:, i] holds coords(b_i*)
    left_mats = to_vec @ system.table.transpose(0, 2, 1) @ from_vec
    conj_mat = to_vec @ system.star @ from_vec.conj()
    return GnsSpace(system, np.ascontiguousarray(to_vec), omega, left_mats,
                    np.ascontiguousarray(conj_mat), np.ascontiguousarray(u_mat))


def cyclic_subspace_frame(gns: GnsSpace, sub: Subsystem,
                          tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns E_0 spanning the closure of F Omega.

    The projection e = E_0 E_0^H satisfies e(a Omega) = D(a) Omega for the
    trace-preserving conditional expectation D onto F.
    """
    cols = gns.to_vector @ sub.coords_in_parent.T  # (dim, m), columns f Omega
    return linalg.orthonormal_columns(cols, tol.eps_rank)
