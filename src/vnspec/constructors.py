"""Builders for the example families: classical atomic systems, group von
Neumann algebras of finite groups, tensor products, skew products and finite
extensions.

Every dynamics is spatial: conjugation by an ambient unitary, built through
``automorphism_from_unitary``, which checks that the unitary is unitary, maps
the algebra onto itself and preserves the trace; ``system`` checks closure
and the trace, ``subsystem`` that F lies in A and is invariant.  Each check
linear in a basis is made at one seeded generic element of the algebra
(``algebra.generic_elements``).  On top of that each constructor validates
its own description:

* ``build_explicit_system``: generator and density shapes;
* ``build_classical_system``: positive weights summing to one, a bijective
  permutation that preserves them; the unitary is the permutation matrix
  sum_x E_{S^-1 x, x};
* ``build_group_vn_system``: a group table (square, Latin, with identity,
  associative) and an automorphism of it; the unitary is f -> f o T;
* ``build_tensor_system``: factors with spatial dynamics; the unitary is
  u_B (x) u_C;
* ``build_skew_product``: the base and the group as above and one cocycle
  value per atom; the unitary is sum_x E_{S^-1 x, x} (x) P_T^-k(S^-1 x) for
  P_T delta_h = delta_{T h};
* ``build_finite_extension``: unitaries v_i in their summands, the
  relative-commutant conditions and a weight in (0, 1); the unitary is
  W = w1 (x) E_11 + w2 (x) E_12 + w3 (x) E_21 + w4 (x) E_22.

The last three families share one layout: A = B (x) C over F = B (x) 1
with the product trace and b_i (x) c_j at index i dim C + j, where C is the
fiber, the group algebra or M_2.  Only the unitary differs, and each keeps
its validated factor systems (B, C), from whose tables ``system`` reads the
table of A.  Skew products are thus block matrices indexed by atoms (the
finite atomic stand-in for a direct integral of copies of the fiber algebra).
A family hands over its own data as typed fields: a skew product its dual
orbits, a finite extension (n1, n2).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import (DEFAULT_TOL, MatrixStarAlgebra, StarAutomorphism, Subsystem,
                      ToleranceConfig, WStarSystem, automorphism_from_unitary,
                      generate_algebra, generic_elements, subsystem, system,
                      trace_functional)
from .errors import (ConstraintViolated, DimensionMismatch, NotAutomorphism,
                     NotUnitary, SpecInvalid, WeightsNotPreserved)
from .gns import build_gns


@dataclass(frozen=True)
class ConstructedSystem:
    system: WStarSystem
    sub: Subsystem
    # the factor systems (B, C) of a product system A = B (x) C over F = B (x) 1
    factors: tuple[WStarSystem, WStarSystem] | None = None
    # a skew product's dual orbits, each as the A-basis indices x n_G + g
    orbits: tuple[tuple[int, ...], ...] | None = None
    # a finite extension's summand sizes (n_1, n_2) of B = B1 (+) B2
    summands: tuple[int, int] | None = None


def identity_automorphism(alg: MatrixStarAlgebra) -> StarAutomorphism:
    return StarAutomorphism(np.eye(alg.dim, dtype=np.complex128),
                            np.eye(alg.ambient_dim, dtype=np.complex128))


def trivial_subalgebra(ambient_dim: int) -> MatrixStarAlgebra:
    basis = np.eye(ambient_dim, dtype=np.complex128)[None] / np.sqrt(ambient_dim)
    return MatrixStarAlgebra(ambient_dim, basis)


# --- explicit systems ---------------------------------------------------------

def build_explicit_system(ambient_dim: int, generators, density, dynamics_unitary,
                          sub_generators=(), tol: ToleranceConfig = DEFAULT_TOL
                          ) -> ConstructedSystem:
    """System from generators, a density matrix and conjugation by a unitary."""
    alg = generate_algebra(generators, ambient_dim, tol)
    trace = trace_functional(density)
    if trace.density.shape != (ambient_dim, ambient_dim):
        raise DimensionMismatch("density has wrong shape")
    dyn = automorphism_from_unitary(alg, dynamics_unitary, trace, tol)
    sys = system(alg, trace, dyn, tol)
    sub_alg = generate_algebra(sub_generators, ambient_dim, tol)
    return ConstructedSystem(sys, subsystem(sys, sub_alg, tol))


# --- classical atomic systems -------------------------------------------------

def build_classical_system(weights, permutation,
                           tol: ToleranceConfig = DEFAULT_TOL) -> WStarSystem:
    """Diagonal algebra over finitely many atoms with a weight-preserving map."""
    w = np.asarray(weights, dtype=float)
    n = len(w)
    if np.any(w <= 0) or abs(w.sum() - 1.0) > tol.eps_assert:
        raise SpecInvalid("weights must be positive and sum to one")
    perm = list(permutation)
    if sorted(perm) != list(range(n)):
        raise SpecInvalid("permutation must be a bijection on the atoms")
    for x in range(n):
        if abs(w[perm[x]] - w[x]) > tol.eps_assert:
            raise WeightsNotPreserved(
                f"atom {x} (weight {w[x]}) maps to weight {w[perm[x]]}")
    basis = np.zeros((n, n, n), dtype=np.complex128)
    for x in range(n):
        basis[x, x, x] = 1.0
    alg = MatrixStarAlgebra(n, basis)
    trace = trace_functional(np.diag(w.astype(np.complex128)))
    # alpha(f) = f o S sends the atom indicator x to S^-1 x
    dyn = automorphism_from_unitary(alg, _atom_permutation(perm), trace, tol)
    return system(alg, trace, dyn, tol)


def classical_sub_partition(sys: WStarSystem, blocks,
                            tol: ToleranceConfig = DEFAULT_TOL) -> Subsystem:
    """Subalgebra of a classical system spanned by indicators of atom blocks."""
    n = sys.algebra.ambient_dim
    seen = sorted(x for b in blocks for x in b)
    if seen != list(range(n)):
        raise SpecInvalid("blocks must partition the atoms")
    mats = []
    for b in blocks:
        m = np.zeros((n, n), dtype=np.complex128)
        for x in b:
            m[x, x] = 1.0
        mats.append(m / np.sqrt(len(b)))
    return subsystem(sys, MatrixStarAlgebra(n, np.stack(mats)), tol)


def _atom_permutation(perm) -> np.ndarray:
    """sum_x E_{S^-1 x, x}: conjugation by it sends E_xx to E_{S^-1 x, S^-1 x}."""
    n = len(perm)
    u = np.zeros((n, n), dtype=np.complex128)
    u[np.argsort(perm), np.arange(n)] = 1.0
    return u


# --- finite groups ------------------------------------------------------------

def _validate_group_table(table) -> tuple[np.ndarray, int]:
    n = len(table)
    if any(len(row) != n or not all(0 <= x < n for x in row) for row in table):
        raise SpecInvalid("multiplication table must be square over element indices")
    t = np.asarray(table, dtype=int)
    for i in range(n):
        if sorted(t[i]) != list(range(n)) or sorted(t[:, i]) != list(range(n)):
            raise SpecInvalid("multiplication table rows/columns must be permutations")
    ident = None
    for e in range(n):
        if all(t[e, h] == h and t[h, e] == h for h in range(n)):
            ident = e
            break
    if ident is None:
        raise SpecInvalid("multiplication table has no identity")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a, b], c] != t[a, t[b, c]]:
                    raise SpecInvalid("multiplication table is not associative")
    return t, ident


def left_regular_matrices(table: np.ndarray) -> np.ndarray:
    """l(g) delta_h = delta_{gh} on the group's coordinate space."""
    n = table.shape[0]
    mats = np.zeros((n, n, n), dtype=np.complex128)
    for g in range(n):
        for h in range(n):
            mats[g, table[g, h], h] = 1.0
    return mats


@dataclass(frozen=True)
class GroupSystem:
    system: WStarSystem
    table: np.ndarray
    identity_index: int
    automorphism_images: tuple[int, ...]

    def __post_init__(self):
        self.table.setflags(write=False)


def build_group_vn_system(group_table, automorphism,
                          tol: ToleranceConfig = DEFAULT_TOL) -> GroupSystem:
    """Group von Neumann algebra of a finite group with a dual automorphism.

    The dynamics is conjugation by the composition unitary f -> f o T, which
    sends l(g) to l(T^{-1} g).
    """
    table, ident = _validate_group_table(group_table)
    n = table.shape[0]
    images = list(automorphism)
    if sorted(images) != list(range(n)):
        raise NotAutomorphism("automorphism images must be a bijection")
    for a in range(n):
        for b in range(n):
            if images[table[a, b]] != table[images[a], images[b]]:
                raise NotAutomorphism("map does not respect the multiplication table")
    lmats = left_regular_matrices(table)
    alg = MatrixStarAlgebra(n, lmats / np.sqrt(n))
    density = np.zeros((n, n), dtype=np.complex128)
    density[ident, ident] = 1.0
    trace = trace_functional(density)
    u_comp = np.zeros((n, n), dtype=np.complex128)
    for h in range(n):
        u_comp[h, images[h]] = 1.0  # (U f)(h) = f(T h)
    dyn = automorphism_from_unitary(alg, u_comp, trace, tol)
    sys = system(alg, trace, dyn, tol)
    return GroupSystem(sys, table, ident, tuple(images))


def group_sub_system(gs: GroupSystem, subgroup,
                     tol: ToleranceConfig = DEFAULT_TOL) -> Subsystem:
    """Subsystem spanned by l(h) over an automorphism-invariant subgroup."""
    elems = sorted(set(int(h) for h in subgroup))
    n = gs.table.shape[0]
    if gs.identity_index not in elems:
        raise SpecInvalid("subgroup must contain the identity")
    for a in elems:
        for b in elems:
            if gs.table[a, b] not in elems:
                raise SpecInvalid("subgroup is not closed under multiplication")
        if gs.automorphism_images[a] not in elems:
            raise SpecInvalid("subgroup is not invariant under the automorphism")
    lmats = left_regular_matrices(gs.table)
    basis = np.stack([lmats[h] for h in elems]) / np.sqrt(n)
    return subsystem(gs.system, MatrixStarAlgebra(n, basis), tol)


# --- product systems --------------------------------------------------------

def _product(b_system: WStarSystem, c_system: WStarSystem, unitary: np.ndarray,
             tol: ToleranceConfig) -> ConstructedSystem:
    """A = B (x) C over F = B (x) 1 with the product trace and dynamics
    Ad(unitary); b_i (x) c_j is basis element i * dim C + j.  The factors'
    own dynamics is not read."""
    balg, calg = b_system.algebra, c_system.algebra
    nb, nc = balg.ambient_dim, calg.ambient_dim
    basis = np.einsum("iab,jcd->ijacbd", balg.basis, calg.basis)
    basis = basis.reshape(balg.dim * calg.dim, nb * nc, nb * nc)
    alg = MatrixStarAlgebra(nb * nc, np.ascontiguousarray(basis))
    trace = trace_functional(np.kron(b_system.trace.density, c_system.trace.density))
    dyn = automorphism_from_unitary(alg, unitary, trace, tol)
    sys = system(alg, trace, dyn, tol, factors=(b_system, c_system))
    eye_c = np.eye(nc, dtype=np.complex128) / np.sqrt(nc)
    f_basis = np.einsum("iab,cd->iacbd", balg.basis, eye_c)
    f_basis = f_basis.reshape(balg.dim, nb * nc, nb * nc)
    sub = subsystem(sys, MatrixStarAlgebra(nb * nc, np.ascontiguousarray(f_basis)), tol)
    return ConstructedSystem(sys, sub, (b_system, c_system))


def build_tensor_system(b_system: WStarSystem, c_system: WStarSystem,
                        tol: ToleranceConfig = DEFAULT_TOL) -> ConstructedSystem:
    """B (x) C with the product trace and product dynamics, over F = B (x) 1."""
    return _product(b_system, c_system,
                    np.kron(b_system.dynamics.unitary, c_system.dynamics.unitary), tol)


def tensor_partition_isometries(b_system: WStarSystem, c_system: WStarSystem,
                                tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Partition elements 1 (x) w_i for the lifted trace of a product system.

    Each w_i maps z to <J_c h_i, z> Omega_c over an orthonormal basis (h_i) of
    the fiber GNS space, so that sum w_i* e w_i = 1 on the product space.
    """
    gns_c = build_gns(c_system, tol)
    eye_b = np.eye(b_system.algebra.dim, dtype=np.complex128)
    out = []
    for i in range(gns_c.dim):
        jh = gns_c.conj_matrix[:, i]  # J applied to the i-th coordinate vector
        w = np.outer(gns_c.omega, jh.conj())
        out.append(np.kron(eye_b, w))
    return out


# --- skew products --------------------------------------------------------

@dataclass(frozen=True)
class SkewProductSpec:
    """Base atoms with weights and a measure-preserving map, a finite group
    with a finite-orbit automorphism, and a cocycle generator."""
    weights: tuple[float, ...]
    permutation: tuple[int, ...]
    group_table: tuple[tuple[int, ...], ...]
    group_automorphism: tuple[int, ...]
    cocycle: tuple[int, ...]


def build_skew_product(spec: SkewProductSpec,
                       tol: ToleranceConfig = DEFAULT_TOL) -> ConstructedSystem:
    """Skew product dynamics alpha(a)(p) = gamma^{k(p)}(a(Sp)) over F = base."""
    base = build_classical_system(spec.weights, spec.permutation, tol)
    gs = build_group_vn_system(spec.group_table, spec.group_automorphism, tol)
    n_x = len(spec.weights)
    if len(spec.cocycle) != n_x:
        raise SpecInvalid("cocycle must assign an integer to every atom")
    n_g = gs.table.shape[0]
    perm = list(spec.permutation)
    inv_s = np.argsort(perm)
    t_perm = gs.automorphism_images

    def t_power(g: int, k: int) -> int:
        """T^k g, with k reduced modulo the length of the orbit of g."""
        orbit = [g]
        while t_perm[orbit[-1]] != g:
            orbit.append(t_perm[orbit[-1]])
        return orbit[k % len(orbit)]

    n = n_x * n_g
    # Ad(P_T^m) l(g) = l(T^m g) for P_T delta_h = delta_{T h}, so conjugation
    # by sum_x E_{S^-1 x, x} (x) P_T^-k(S^-1 x) sends the basis element at
    # (x, g) to the one at (S^-1 x, T^-k(S^-1 x) g)
    u = np.zeros((n, n), dtype=np.complex128)
    for x in range(n_x):
        xs = int(inv_s[x])  # S^{-1} x, the atom where the image lives
        k = -int(spec.cocycle[xs])
        for h in range(n_g):
            u[xs * n_g + t_power(h, k), x * n_g + h] = 1.0
    orbits = tuple(tuple(x * n_g + g for x in range(n_x) for g in orbit)
                   for orbit in dual_orbits(gs))
    return replace(_product(base, gs.system, u, tol), orbits=orbits)


def dual_orbits(gs: GroupSystem) -> list[tuple[int, ...]]:
    """Orbits of the group automorphism on the non-identity elements."""
    n = gs.table.shape[0]
    seen = set()
    orbits = []
    for g in range(n):
        if g == gs.identity_index or g in seen:
            continue
        orbit = []
        h = g
        while h not in seen:
            seen.add(h)
            orbit.append(h)
            h = gs.automorphism_images[h]
        orbits.append(tuple(sorted(orbit)))
    return orbits


# --- finite extensions ----------------------------------------------------

@dataclass(frozen=True)
class FiniteExtensionSpec:
    """Two summand systems, a weight s, and the four unitaries assembling the
    dynamics of a two-dimensional extension."""
    b1: WStarSystem
    b2: WStarSystem | None
    s: float
    v1: np.ndarray
    v4: np.ndarray
    v2: np.ndarray | None = None
    v3: np.ndarray | None = None


def _check_unitary_in(alg: MatrixStarAlgebra, v: np.ndarray, name: str,
                      tol: ToleranceConfig) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (alg.ambient_dim, alg.ambient_dim):
        raise SpecInvalid(f"{name} has the wrong shape")
    if np.abs(v @ v.conj().T - np.eye(alg.ambient_dim)).max() > tol.eps_assert:
        raise NotUnitary(f"{name} is not unitary")
    if alg.membership_residual(v) > tol.eps_assert:
        raise SpecInvalid(f"{name} does not lie in its algebra")
    return v


def _check_relative_commutant(alg: MatrixStarAlgebra, x: np.ndarray, name: str,
                              tol: ToleranceConfig) -> None:
    (_,), (y,) = generic_elements(alg)
    resid = float(np.abs(x @ y - y @ x).max())
    if resid > tol.eps_assert:
        raise ConstraintViolated(f"{name} is not in the relative commutant "
                                 f"(residual {resid:.2e})")


def build_finite_extension(spec: FiniteExtensionSpec,
                           tol: ToleranceConfig = DEFAULT_TOL) -> ConstructedSystem:
    """Extension of B = B1 (+) B2 by 2x2 matrices with dynamics Ad(W).

    W has corners w1 = v1 (+) 0, w4 = v4 (+) 0, w2 = 0 (+) v2, w3 = 0 (+) v3;
    the restriction to B (x) 1 is Ad(v1) (+) Ad(v2), and the construction is
    consistent exactly when v4* v1 and v3* v2 are central relative to their
    summands.
    """
    b1 = spec.b1
    v1 = _check_unitary_in(b1.algebra, spec.v1, "v1", tol)
    v4 = _check_unitary_in(b1.algebra, spec.v4, "v4", tol)
    _check_relative_commutant(b1.algebra, v4.conj().T @ v1, "v4* v1", tol)
    n1 = b1.algebra.ambient_dim
    if spec.b2 is not None:
        if not 0.0 < spec.s < 1.0:
            raise SpecInvalid("s must lie strictly between 0 and 1")
        b2 = spec.b2
        if spec.v2 is None or spec.v3 is None:
            raise SpecInvalid("v2 and v3 are required when B2 is present")
        v2 = _check_unitary_in(b2.algebra, spec.v2, "v2", tol)
        v3 = _check_unitary_in(b2.algebra, spec.v3, "v3", tol)
        _check_relative_commutant(b2.algebra, v3.conj().T @ v2, "v3* v2", tol)
        n2, d1 = b2.algebra.ambient_dim, b1.algebra.dim
        nb = n1 + n2
        first, second = slice(0, n1), slice(n1, nb)

        def pad(m: np.ndarray, at: slice) -> np.ndarray:
            """m on one summand of C^n1 (+) C^n2."""
            out = np.zeros((nb, nb), dtype=np.complex128)
            out[at, at] = m
            return out

        basis = np.zeros((d1 + b2.algebra.dim, nb, nb), dtype=np.complex128)
        basis[:d1, first, first] = b1.algebra.basis
        basis[d1:, second, second] = b2.algebra.basis
        b_alg = MatrixStarAlgebra(nb, basis)
        b_density = spec.s * pad(b1.trace.density, first) \
            + (1.0 - spec.s) * pad(b2.trace.density, second)
        # _product reads only Ad(W), so B1 (+) B2 and M_2 get the identity dynamics
        b_sys = system(b_alg, trace_functional(b_density), identity_automorphism(b_alg),
                       tol)
        w1, w4 = pad(v1, first), pad(v4, first)
        w2, w3 = pad(v2, second), pad(v3, second)
    else:
        nb, b_sys = n1, b1
        w1, w4 = v1, v4
        w2 = np.zeros((nb, nb), dtype=np.complex128)
        w3 = np.zeros((nb, nb), dtype=np.complex128)
    units = np.zeros((4, 2, 2), dtype=np.complex128)
    units[0, 0, 0] = units[1, 0, 1] = units[2, 1, 0] = units[3, 1, 1] = 1.0
    m2_alg = MatrixStarAlgebra(2, units)
    m2_sys = system(m2_alg, trace_functional(np.eye(2, dtype=np.complex128) / 2.0),
                    identity_automorphism(m2_alg), tol)
    # W is unitary once each v_i is: the corners act on orthogonal summands
    w_full = (np.kron(w1, units[0]) + np.kron(w2, units[1])
              + np.kron(w3, units[2]) + np.kron(w4, units[3]))
    return replace(_product(b_sys, m2_sys, w_full, tol), summands=(n1, nb - n1))


@dataclass(frozen=True)
class FiniteExtensionDiagnostics:
    """Residuals of the structural identities of a two-dimensional extension."""
    beta_two_expressions: float  # the two expressions for the restricted dynamics
    off_diagonal: float          # the off-diagonal cancellation
    restriction: float           # alpha(b (x) 1) = beta(b) (x) 1
    display_pattern: float       # the displayed block pattern of alpha(1 (x) m)
    product_distance: float      # distance of alpha(1 (x) E12) from 1 (x) M_2
    nonproduct_detected: bool
    nonproduct_expected: bool    # both summands present

    @property
    def structure_residual(self) -> float:
        return max(self.beta_two_expressions, self.off_diagonal, self.restriction,
                   self.display_pattern)


def finite_extension_diagnostics(fe: ConstructedSystem,
                                 tol: ToleranceConfig = DEFAULT_TOL
                                 ) -> FiniteExtensionDiagnostics:
    """Residuals of the structural identities of a two-dimensional extension.

    Checks the two expressions for the restricted dynamics, the off-diagonal
    cancellation, the restriction alpha(b (x) 1) = beta(b) (x) 1, the displayed
    block pattern of alpha(1 (x) m), and whether the dynamics visibly fails to
    be a product (distance of alpha(1 (x) m) from 1 (x) M_2).  The corner
    w_k of W = sum_k w_k (x) E_k at (a, b) is W[a::2, b::2].
    """
    w = fe.system.dynamics.unitary
    w1, w2, w3, w4 = w[0::2, 0::2], w[0::2, 1::2], w[1::2, 0::2], w[1::2, 1::2]
    b_alg = fe.factors[0].algebra
    alg = fe.system.algebra
    nb = b_alg.ambient_dim
    beta_resid = 0.0
    offdiag_resid = 0.0
    restrict_resid = 0.0
    units = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            units[i, j, i, j] = 1.0
    for b in b_alg.basis:
        first = w1 @ b @ w1.conj().T + w2 @ b @ w2.conj().T
        second = w3 @ b @ w3.conj().T + w4 @ b @ w4.conj().T
        beta_resid = max(beta_resid, float(np.abs(first - second).max()))
        off = w1 @ b @ w3.conj().T + w2 @ b @ w4.conj().T
        offdiag_resid = max(offdiag_resid, float(np.abs(off).max()))
        image = fe.system.dynamics.apply(alg, np.kron(b, np.eye(2)))
        restrict_resid = max(restrict_resid,
                             float(np.abs(image - np.kron(first, np.eye(2))).max()))
    # displayed block pattern of alpha(1 (x) m) on the matrix units
    eye_b = np.eye(nb, dtype=np.complex128)
    display_resid = 0.0
    n1, n2 = fe.summands
    p1 = np.zeros((nb, nb), dtype=np.complex128)
    p1[:n1, :n1] = np.eye(n1)
    p2 = eye_b - p1
    for m1, m2, m3, m4 in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
        m = np.array([[m1, m2], [m3, m4]], dtype=np.complex128)
        expected = (np.kron(m1 * p1 + m4 * p2, units[0, 0])
                    + np.kron(m2 * (w1 @ w4.conj().T) + m3 * (w2 @ w3.conj().T),
                              units[0, 1])
                    + np.kron(m3 * (w4 @ w1.conj().T) + m2 * (w3 @ w2.conj().T),
                              units[1, 0])
                    + np.kron(m4 * p1 + m1 * p2, units[1, 1]))
        image = fe.system.dynamics.apply(alg, np.kron(eye_b, m))
        display_resid = max(display_resid, float(np.abs(image - expected).max()))
    # distance of alpha(1 (x) E12) from 1 (x) M_2
    image = fe.system.dynamics.apply(alg, np.kron(eye_b, units[0, 1]))
    fiber_rows = np.stack([np.kron(eye_b, units[i, j]).reshape(-1) / np.sqrt(nb)
                           for i in range(2) for j in range(2)])
    flat = image.reshape(-1)
    proj = fiber_rows.conj() @ flat
    product_distance = float(np.linalg.norm(flat - fiber_rows.T @ proj))
    return FiniteExtensionDiagnostics(beta_resid, offdiag_resid, restrict_resid,
                                      display_resid, product_distance,
                                      product_distance > tol.eps_assert, n2 > 0)
