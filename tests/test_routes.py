"""The structure-aware routes against the iterate-until-stable ones they replace.

The basic construction is built as span(A e A), its L2 space as a Cholesky
map of the lifted trace's Gram matrix rather than a full GNS construction, the
joint commutant of the dynamics and the right subalgebra action as the fixed
points of the lifted dynamics, and the commutant by intersecting null spaces
one basis element at a time.  The equivalence residuals in the ledger are the
ones the equivalence check enforced.  Cesaro averages come from the
certified eigenbasis of the dynamics instead of a loop over single steps.
Conjugation by a unitary is checked by invariance of the algebra and of the
trace instead of the generic automorphism check.  span(A e A) is certified
as j(F)' by commutation with j(F) and the Bratteli dimension instead of the
commutant of j(F) grown from all of M_n.  The lifted trace is the closed form
Tr(x j(sum_k mu(p_k) / n_k^2 p_k)) over the central blocks of F instead of a
least-squares extension over the spanning family.  The joining's GNS space
comes from one eigendecomposition of the Jacobi-scaled Gram matrix of the
d k generating tensors x_i (x) j(b_s) instead of the d^2 x d^2 Gram of all
simple tensors or a pivoted Cholesky factor of the scaled one, and the
equivalence is checked on those tensors, with the balance over F, instead
of on all d^2 simple tensors.
span(A e A) is shown closed under products by the Jones relation
e a e = E(a) e instead of multiplying the span by every generator.  <A, e> is
spanned by the d k products x_i e b_s over a few generic generators b_s of A
over F instead of all d^2 products a_i e a_j, and the center is the kernel of
the commutators with two generic elements, certified against every basis
element, instead of all commutators stacked whole.
Every dynamics is a conjugation by a unitary instead of a coordinate matrix
passed through the generic automorphism check; the left action and the Cesaro
map read one multiplication table instead of projecting products again; the
joining's Kronecker terms come from the GNS action instead of coordinate
passes; the inclusion in j(F)' commutes with a few generators of F
instead of every basis element; and the minimal modules are Z(C)(1 - e) for
the joint commutant C instead of the center of the corner (1 - e) C (1 - e).
A product system B (x) C reads its multiplication table off its factors'
tables, certified on one generic pair, instead of projecting all d^2 products.
<A, e> is held in the block coordinates of j(F)' instead of as n x n basis
matrices from one SVD of the n^2-wide span: the dense span, its trace and
dynamics as validate_trace and automorphism_from_unitary certified them, the
fixed points as n x n matrices and the default partition of dim <A, e>
operators are the oracles for the span's rank and coordinates, the lifted
trace and dynamics, the center of the fixed points and the partition formula.
The fixed points and their minimal central projections come from the
return unitaries of F's block orbits, an m^2-wide null space and the
eigenprojections per orbit, instead of the null space of the dim <A, e>
square matrix alpha_bar - 1 and the generic center search on it.
F's central blocks, minimal projections and matrix units come from the
eigenprojections of one generic h in F, linked into blocks by one generic f,
instead of the generic center search on F, a generic central element and a
word loop over generic generators of F.
The Jones projection is held as its frame E_0: the Jones relation reads
E_0 (E_0^H L(a) E_0) = L(E(a)) E_0 instead of e L(a) e = L(E(a)) e on
d x n x n stacks, and route two of the joint state is one product of the
dim F x dim F corners instead of n x n transposes in chunks.
The build's checks that are linear in a basis, the closure of every system,
u A u* in A, F in A, alpha(F) in F and the relative-commutant conditions,
hold at one seeded generic element instead of on the rebuilt stacks of the
basis and its images or on each basis element in turn.
The older routes survive here only, as oracles.
"""
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import vnspec as v
from vnspec import linalg
from vnspec.cli import shipped_system_paths
from vnspec.descriptions import build_from_description, parse_system
from vnspec import (algebra, basic, constructors, descriptions, joining, report,
                    spectrum)
from vnspec.algebra import DEFAULT_TOL
from vnspec.errors import (CommutantMismatch, ExtensionInconsistent, IsometryViolation,
                           NotAutomorphism, NumericalBreakdown, StateNotPositive)
from vnspec.pipeline import SystemAnalysis, analyze_built, analyze_description
from vnspec.spectrum import CESARO_EXIT_TOL, admissible_elements
from conftest import E12
from oracles import (block_decomposition, center, center_coords, chunked_trace_route,
                     commutant, corner_stacks, d_wide_cesaro_rows,
                     dense_automorphism_check,
                     dense_closure_check, dense_closure_residual, dense_fixed_points,
                     dense_jones_residual, dense_relative_commutant_check, dense_span,
                     dense_subsystem_check, einsum_tensor_gram,
                     fixed_point_center, full_equivalence, full_factor, full_span_rank,
                     inv_sqrt_psd, joint_commutant,
                     pivoted_cholesky, product_closure_residual, product_trace_table,
                     random_element, span_candidates, stack_invariance_residual)
from test_exit_codes import _run as run_cli


def validate_automorphism(alg, auto, trace, tol=DEFAULT_TOL) -> None:
    """The generic check of a coordinate matrix: nonsingular, multiplicative
    on every pair of basis elements, *-preserving and trace-preserving, as
    the package once ran it on the classical, skew-product and tensor kinds."""
    m = auto.matrix
    if np.linalg.svd(m, compute_uv=False)[-1] <= tol.eps_rank:
        raise NumericalBreakdown("automorphism matrix is singular")
    images = alg.from_coords_stack(m.T)  # images[i] = alpha(b_i)
    for i in range(alg.dim):
        lhs = alg.from_coords_stack((m @ alg.coords_stack(alg.basis[i] @ alg.basis).T).T)
        rhs = images[i] @ images
        if np.abs(lhs - rhs).max() > tol.eps_assert:
            raise NumericalBreakdown("map is not multiplicative")
    adj_of_image = images.conj().transpose(0, 2, 1)
    image_of_adj = alg.from_coords_stack(
        (m @ alg.coords_stack(alg.basis.conj().transpose(0, 2, 1)).T).T)
    if np.abs(image_of_adj - adj_of_image).max() > tol.eps_assert:
        raise NumericalBreakdown("map is not *-preserving")
    if np.abs(trace.values(images) - trace.values(alg.basis)).max() > tol.eps_assert:
        raise NumericalBreakdown("map does not preserve the trace")


def _mutual_inclusion(a, b) -> float:
    return max(max((b.membership_residual(x) for x in a.basis), default=0.0),
               max((a.membership_residual(x) for x in b.basis), default=0.0))


def _block_inclusion(alg, bc) -> float:
    """How far the basis of a dense algebra lies from <A, e>'s blocks."""
    return max(bc.algebra.membership_residual(x) for x in alg.basis)


def test_span_basis_equals_generated_algebra(analyses):
    for name, an in analyses.items():
        gns, bc = an.gns, an.basic
        generated = v.generate_algebra(list(gns.left_mats) + [bc.e], gns.dim)
        assert generated.dim == bc.algebra.dim, name
        assert _block_inclusion(generated, bc) < 1e-9, name


def _dense_lifted_system(bc):
    """The lifted system on the dense span, as the package once certified it:
    validate_trace and automorphism_from_unitary on <A, e>."""
    dense = dense_span(bc)
    gram, tracial = v.validate_trace(dense, bc.trace,
                                     algebra.multiplication_table(dense)[0])
    return dense, gram, tracial, v.automorphism_from_unitary(dense, bc.gns.u_matrix,
                                                             bc.trace)


def test_bar_map_equals_gns_of_lifted_system(analyses):
    """The diagonal L2 map of the block coordinates and the Cholesky GNS map
    of the dense lifted system differ by a unitary W on L2(<A, e>), which
    carries the one dynamics unitary to the other."""
    for name, an in analyses.items():
        bc = an.basic
        dense, _, tracial, dyn = _dense_lifted_system(bc)
        assert tracial <= 1e-12 and bc.tracial_residual <= 1e-12, name
        bar = v.build_gns(v.system(dense, bc.trace, dyn))
        change = bc.algebra.coords(dense.basis).T  # block coords of the dense basis
        w = bc.bar_to_vector @ change @ np.linalg.inv(bar.to_vector)
        assert np.abs(w.conj().T @ w - np.eye(len(w))).max() <= 1e-10, name
        assert np.abs(bc.u_bar - w @ bar.u_matrix @ w.conj().T).max() <= 1e-10, name


def test_ledger_records_equivalence_residuals(analyses):
    for name, an in analyses.items():
        r, eye = an.equivalence, np.eye(an.joining.rank)
        checks = {c.name: c.residual for c in an.checks}
        assert checks["R_isometry"] == max(
            float(np.abs(r.conj().T @ r - eye).max()),
            float(np.abs(r @ r.conj().T - eye).max())), name
        assert checks["R_intertwine"] == float(
            np.abs(r @ an.joining.w_matrix @ r.conj().T - an.basic.u_bar).max()), name


def test_fixed_points_equal_joint_commutant(analyses):
    for name, an in analyses.items():
        gns, sub = an.gns, an.built.sub
        fixed = joint_commutant(an.basic)
        joint = v.generate_algebra(
            [gns.u_matrix] + [gns.j_op(gns.left(f)) for f in sub.algebra.basis],
            gns.dim)
        oracle = commutant(joint)
        assert fixed.dim == oracle.dim, name
        assert _mutual_inclusion(fixed, oracle) < 1e-9, name


def _stacked_commutant(alg, eps_rank=1e-10):
    """One SVD over the stacked Kronecker matrices of every basis element."""
    n = alg.ambient_dim
    eye = np.eye(n, dtype=np.complex128)
    stacked = np.vstack([np.kron(b, eye) - np.kron(eye, b.T) for b in alg.basis])
    kernel = linalg.nullspace(stacked, eps_rank)
    return v.MatrixStarAlgebra(n, np.ascontiguousarray(kernel.T.reshape(-1, n, n)))


def _random_block_algebra(rng, blocks):
    """U (sum_k M_{n_k} (x) 1_{m_k}) U* for a seeded random unitary U."""
    n = sum(nk * mk for nk, mk in blocks)
    gens, offset = [], 0
    for nk, mk in blocks:
        x = np.zeros((n, n), dtype=np.complex128)
        x[offset:offset + nk * mk, offset:offset + nk * mk] = np.kron(
            linalg.random_complex(rng, (nk, nk)), np.eye(mk))
        gens.append(x)
        offset += nk * mk
    u, _ = np.linalg.qr(linalg.random_complex(rng, (n, n)))
    return v.generate_algebra([u @ g @ u.conj().T for g in gens], n)


@pytest.mark.parametrize("seed, blocks", [
    (0, [(1, 1), (1, 1), (1, 1)]),
    (1, [(2, 1), (1, 2)]),
    (2, [(2, 2)]),
    (3, [(3, 1), (1, 1), (1, 1)]),
    (4, [(1, 3), (2, 1)]),
])
def test_intersected_commutant_equals_stacked(seed, blocks):
    alg = _random_block_algebra(np.random.default_rng(seed), blocks)
    comm = commutant(alg)
    oracle = _stacked_commutant(alg)
    assert comm.dim == oracle.dim == sum(mk * mk for _, mk in blocks)
    assert _mutual_inclusion(comm, oracle) < 1e-9
    rows = comm.basis_rows()
    assert np.abs(rows @ rows.conj().T - np.eye(comm.dim)).max() < 1e-12


# the d = 24 skew product of the skew_ladder benchmark workload at seed 1
SKEW_D24 = {
    "format_version": 1, "name": "skew_ladder_x6", "kind": "skew_product",
    "parameters": {
        "weights": [1.0 / 6] * 6, "permutation": [2, 5, 1, 4, 0, 3],
        "group_table": [[(i + j) % 4 for j in range(4)] for i in range(4)],
        "group_automorphism": [0, 3, 2, 1], "cocycle": [1, 0, 2, 0, 0, 0]}}
ADDRESS_SPACE_CAP = 1 << 30
SMALL_ADDRESS_SPACE_CAP = 384 << 20
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def skew_d24():
    return analyze_description(parse_system(SKEW_D24))


# --- <A, e> = j(F)': commutation and the Bratteli count against the commutant

def _right_subalgebra(gns, sub, eps_rank=1e-10):
    """j(F) on H with an orthonormal basis, as the pipeline once built it."""
    left_f = np.stack([gns.left(f) for f in sub.algebra.basis])
    rows = linalg.extend_orthonormal(
        np.zeros((0, gns.dim ** 2), dtype=np.complex128),
        left_f.reshape(len(left_f), -1), eps_rank)
    mats = rows.reshape(-1, gns.dim, gns.dim)
    return v.MatrixStarAlgebra(gns.dim, np.stack([gns.j_op(m) for m in mats]))


def _assert_commutant_route(name, an):
    bc, sub = an.basic, an.built.sub
    oracle = commutant(_right_subalgebra(an.gns, sub))
    count = sum(m * m for _, _, m in v.bratteli_blocks(
        an.built.system.algebra, sub.algebra, v.matrix_units(sub.algebra)))
    assert oracle.dim == bc.algebra.dim == count, name
    assert _block_inclusion(oracle, bc) < 1e-9, name
    assert bc.commutant_residual <= 1e-14, name


def test_span_equals_commutant_of_right_action(analyses):
    for name, an in analyses.items():
        _assert_commutant_route(name, an)


def test_skew_d24_span_equals_commutant_of_right_action(skew_d24):
    _assert_commutant_route(SKEW_D24["name"], skew_d24)


# --- the lifted trace: closed form against the least-squares extension ------

def span_products(gns, e):
    """The d^2 products left(a_i) e left(a_j); row i * d + j."""
    n = gns.dim
    left_e = gns.left_mats @ e
    return (left_e[:, None] @ gns.left_mats[None]).reshape(-1, n, n)


def lifted_trace_coefficients(gns, e, alg_bar, tol=DEFAULT_TOL):
    """Extend  a e b -> mu(a b)  to a linear functional on the whole algebra.

    First checks that the algebra, the span of {a_i e a_j}, is closed under
    products and contains the identity.  Every basis element is then
    expressed in the spanning family by least squares; consistency requires
    that null combinations of the family map to zero values.  The returned
    residual is the larger of the closure and the consistency residual.
    """
    alg = gns.system.algebra
    closure = product_closure_residual(alg_bar, list(gns.left_mats) + [e])
    if closure > tol.eps_assert:
        raise ExtensionInconsistent(
            f"span(A e A) is not closed under products "
            f"(residual {closure:.2e})")
    span_cols = alg_bar.coords_stack(span_products(gns, e)).T
    values = gns.system.trace.values(
        (alg.basis[:, None] @ alg.basis[None]).reshape(-1, *alg.basis.shape[1:]))
    trace_vec = values @ np.linalg.pinv(span_cols, rcond=tol.eps_rank)
    consistency = float(np.abs(trace_vec @ span_cols - values).max())
    if consistency > tol.eps_assert:
        raise ExtensionInconsistent(
            f"trace extension is inconsistent on the kernel "
            f"(residual {consistency:.2e})")
    return trace_vec, max(closure, consistency)


def _assert_trace_route(name, an):
    bc = an.basic
    dense = dense_span(bc)
    oracle, resid = lifted_trace_coefficients(an.gns, bc.e, dense)
    assert resid <= 1e-13, name
    closed_form = bc.trace_vector @ bc.algebra.coords(dense.basis).T
    assert np.abs(closed_form - oracle).max() <= 1e-12, name
    assert bc.extension_residual <= 1e-13, name


def test_closed_form_trace_equals_least_squares(analyses):
    for name, an in analyses.items():
        _assert_trace_route(name, an)


def test_skew_d24_closed_form_trace_equals_least_squares(skew_d24):
    _assert_trace_route(SKEW_D24["name"], skew_d24)


def test_trace_table_from_the_multiplication_table(analyses, skew_d24):
    """mu(b_i b_j) = sum_c T[i, j, c] mu(b_c), which the lifted trace's
    defining check and validate_trace read, equals the table
    Tr(rho b_i b_j) that validate_trace once formed from the basis matrices."""
    for name, an in {**analyses, SKEW_D24["name"]: skew_d24}.items():
        system = an.built.system
        from_table = system.table @ system.trace.values(system.algebra.basis)
        oracle = product_trace_table(system.algebra, system.trace.density)
        assert np.abs(from_table - oracle).max() <= 1e-13, name


def bratteli_counts_by_rank(alg, sub_alg, blocks, eps_rank=DEFAULT_TOL.eps_rank):
    """(dim F p_k, dim A p_k) as the SVD ranks of the stacked basis @ p_k, as
    bratteli_blocks once counted them."""
    return [tuple(linalg.rank((x.basis @ p).reshape(x.dim, -1), eps_rank)
                  for x in (sub_alg, alg)) for p, _, _ in blocks]


def test_bratteli_traces_equal_the_svd_ranks(analyses, skew_d24):
    for name, an in {**analyses, SKEW_D24["name"]: skew_d24}.items():
        blocks = an.basic.blocks
        oracle = bratteli_counts_by_rank(an.built.system.algebra,
                                         an.built.sub.algebra, blocks)
        assert [(n * n, n * m) for _, n, m in blocks] == oracle, name


def test_bratteli_refuses_a_block_that_is_not_n_squared(analyses):
    """The two one-dimensional blocks of F, merged into one block of two
    units, give dim F p = 2."""
    an = analyses["finite_extension_m2"]
    sub_alg = an.built.sub.algebra
    units = v.matrix_units(sub_alg)
    (big, *ones), (big_units, *one_units) = units.projections, units.units
    merged = v.MatrixUnits((big, sum(ones)), (big_units, np.concatenate(one_units)),
                           units.generators)
    with pytest.raises(NumericalBreakdown, match=r"a central block of F has dim F p = 2, "
                       r"not n\^2 for an n dividing dim A p = 8$"):
        v.bratteli_blocks(an.built.system.algebra, sub_alg, merged)


def test_bratteli_refuses_a_count_off_an_integer(analyses):
    """p (1 + 1e-6) is not a projection: its traces miss 4 and 16 by 4e-6
    and 1.6e-5."""
    an = analyses["finite_extension_m2"]
    sub_alg = an.built.sub.algebra
    units = v.matrix_units(sub_alg)
    scaled = dataclasses.replace(
        units, projections=tuple(p * (1 + 1e-6) for p in units.projections))
    with pytest.raises(NumericalBreakdown, match=r"dim F p = 4\.000004, not n\^2 for "
                       r"an n dividing dim A p = 16\.000016$"):
        v.bratteli_blocks(an.built.system.algebra, sub_alg, scaled)


@pytest.mark.parametrize("name, blocks", [
    ("full_subsystem_m2", [(2, 2)]),
    ("finite_extension_m2", [(2, 8), (1, 4), (1, 4)]),
])
def test_bratteli_blocks_and_wrong_weight(analyses, name, blocks):
    """(n_k, m_k) per block; the weight mu(p_k) / n_k fails the definition."""
    an = analyses[name]
    sub_alg = an.built.sub.algebra
    found = v.bratteli_blocks(an.built.system.algebra, sub_alg, v.matrix_units(sub_alg))
    assert [(n, m) for _, n, m in found] == blocks
    # n_k -> sqrt(n_k) turns the weight mu(p_k) / n_k^2 into mu(p_k) / n_k
    wrong = [(p, np.sqrt(n), m) for p, n, m in found]
    *_, corners = corner_stacks(an.basic)
    v.lifted_trace(an.gns, corners, an.basic.algebra, found)
    with pytest.raises(ExtensionInconsistent, match="basis pair"):
        v.lifted_trace(an.gns, corners, an.basic.algebra, wrong)


@pytest.fixture()
def m2_over_diagonal_gns():
    built = v.build_explicit_system(2, [E12], np.eye(2) / 2,
                                    dynamics_unitary=np.eye(2),
                                    sub_generators=[np.diag([1.0, -1.0])])
    return v.build_gns(built.system), built.sub


def _inclusion_residuals(error):
    """The commutator [e, j(g)] and block rebuild residuals a failed
    inclusion reports."""
    found = re.search(r"commutator residual (\S+), block rebuild residual (\S+)$",
                      str(error))
    return float(found[1]), float(found[2])


def test_projection_off_the_commutant_fails_inclusion(m2_over_diagonal_gns,
                                                      monkeypatch):
    """j(w) e j(w)* spans j(w F w*)': off j(F)', so it no longer commutes
    with j(F)."""
    gns, sub = m2_over_diagonal_gns
    frame = v.cyclic_subspace_frame(gns, sub)
    jw = gns.j_op(gns.left(np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)))
    monkeypatch.setattr(basic, "cyclic_subspace_frame", lambda *args: jw @ frame)
    with pytest.raises(CommutantMismatch, match=r"j\(F\)' \(dim 8 ") as err:
        v.build_basic_construction(gns, sub)
    commutator, _ = _inclusion_residuals(err.value)
    assert commutator > DEFAULT_TOL.eps_assert


def test_span_missing_a_row_fails_dimension(m2_over_diagonal_gns, monkeypatch):
    """A span one block coordinate short still commutes with j(F)."""
    gns, sub = m2_over_diagonal_gns
    span_coords = basic._span_coords

    def dropped(*args):
        cols = span_coords(*args).copy()
        cols[:, -1] = 0.0
        return cols
    monkeypatch.setattr(basic, "_span_coords", dropped)
    with pytest.raises(CommutantMismatch, match=r"\(dim 7\) .* \(dim 8 "):
        v.build_basic_construction(gns, sub)


# --- <A, e> in block coordinates against its dense n^2-wide form ------------

def dense_default_partition(bc, dense, tol=DEFAULT_TOL):
    """The default partition as the package once built it: an orthonormal
    basis m_i of J <A, e> J, scaled by the inverse square root of the
    averaged element sum m_i* e m_i, dim <A, e> operators of n x n."""
    m_basis = bc.gns.j_op(dense.basis)
    psi = np.einsum("iba,bc,icd->ad", m_basis.conj(), bc.e, m_basis, optimize=True)
    scale = inv_sqrt_psd((psi + psi.conj().T) / 2, tol.eps_rank)
    return [m @ scale for m in m_basis]


def _assert_block_coordinates_route(name, bc):
    """The span's block coordinates have the Hilbert-Schmidt Gram of its
    dense coordinates, and the old dim <A, e>-member partition agrees with
    the block trace."""
    dense = dense_span(bc)
    hs = dense.coords_stack(span_candidates(bc).reshape(-1, *dense.basis.shape[1:]))
    weighted = (bc.span_coords.conj() * bc.algebra.hs_weights) @ bc.span_coords.T
    assert np.abs(weighted - hs.conj() @ hs.T).max() <= 1e-12, name
    members = dense_default_partition(bc, dense)
    assert len(members) == bc.algebra.dim > len(basic.default_partition(bc)), name
    assert basic.lifted_trace_via_partition(bc, members) <= 1e-12, name


def test_block_coordinates_equal_the_dense_route(analyses):
    for name, an in analyses.items():
        _assert_block_coordinates_route(name, an.basic)


def test_skew_d24_block_coordinates_equal_the_dense_route(skew_d24):
    _assert_block_coordinates_route(SKEW_D24["name"], skew_d24.basic)


# --- <A, e> is an algebra: the Jones relation against the generic closure test

def _closure_oracle(an):
    """The span times each of the d + 1 generators left(a_i) and e, projected
    back, and the identity's membership, as the pipeline once checked it."""
    return product_closure_residual(dense_span(an.basic),
                                    list(an.gns.left_mats) + [an.basic.e])


@pytest.fixture(scope="module")
def spied_analyses():
    """The shipped systems, the d = 24 skew product, both weight ladders at
    2e-10 and the skewed tensor at 2e-8, analysed while every call of the
    generic closure test is recorded."""
    from test_pipeline_properties import _skewed_fiber_tensor, _weight_ladder
    calls = []

    def spy(alg, generators):
        calls.append((alg.ambient_dim, alg.dim))
        return product_closure_residual(alg, generators)
    modules = [m for name, m in sys.modules.items() if name.startswith("vnspec")
               and getattr(m, "product_closure_residual", None) is product_closure_residual]
    with pytest.MonkeyPatch.context() as mp:
        for m in modules:
            mp.setattr(m, "product_closure_residual", spy)
        found = {p.stem: analyze_description(parse_system(p.read_text()))
                 for p in shipped_system_paths()}
        found[SKEW_D24["name"]] = analyze_description(parse_system(SKEW_D24))
        for pairs in (False, True):
            found[f"weight_ladder_{pairs}"] = analyze_description(
                parse_system(_weight_ladder(2e-10, pairs)))
        found["skewed_tensor"] = analyze_built("t", "tensor", _skewed_fiber_tensor(2e-8))
    return found, calls


def test_span_is_closed_under_every_generator(spied_analyses):
    found, _ = spied_analyses
    assert len(found) == 11
    for name, an in found.items():
        assert an.passed, name
        assert _closure_oracle(an) < 1e-12, name
        assert an.basic.extension_residual < 1e-12, name


def test_pipeline_never_runs_the_generic_closure_test(spied_analyses):
    _, calls = spied_analyses
    assert calls == []


def test_conjugated_projection_fails_the_jones_relation(analyses, monkeypatch):
    """u e u* for a unitary u of A outside F spans the same algebra, commutes
    with j(F) and has the Bratteli dimension, but breaks e a e = E(a) e."""
    an = analyses["finite_extension_m2"]
    frame = _conjugated_frame(an)
    monkeypatch.setattr(basic, "cyclic_subspace_frame", lambda *args: frame)
    with pytest.raises(ExtensionInconsistent, match="Jones relation"):
        v.build_basic_construction(an.gns, an.built.sub)


def _conjugated_frame(an):
    """The frame L(u) E_0 of u e u* for a seeded unitary u of A outside F."""
    gns, sub, alg = an.gns, an.built.sub, an.built.system.algebra
    h = random_element(alg, np.random.default_rng(3))
    w, q = np.linalg.eigh(h + h.conj().T)
    u = (q * np.exp(1j * w)) @ q.conj().T
    assert alg.membership_residual(u) < 1e-12
    assert sub.algebra.membership_residual(u) > 0.1
    return gns.left(u) @ v.cyclic_subspace_frame(gns, sub)


def _stack_jones_residual(bc):
    left_e, _, e_left_e, _ = corner_stacks(bc)
    return basic._jones_relation(bc.sub, bc.e_frame, left_e, e_left_e, bc.algebra,
                                 DEFAULT_TOL)


def test_frame_routes_equal_the_dense_projection_routes(gram_systems, analyses):
    """The Jones relation on the corner stacks and route two of the joint
    state on the dim F x dim F corners against the d x n x n stacks and the
    chunked n x n transposes of e, on the shipped systems, the d = 24 skew
    product, the skewed tensor at w = 1e-9 and the weight ladder at 2e-10;
    both routes of each refuse the frame of u e u* for a unitary u of A
    outside F."""
    for name, bc in gram_systems.items():
        dense = dense_jones_residual(bc.gns, bc.sub, bc.e)
        assert max(dense, _stack_jones_residual(bc)) <= 1e-13, name
        alt = joining._trace_route(bc)
        assert np.abs(alt - chunked_trace_route(bc, bc.e)).max() <= 1e-13, name
        omega = v.relative_joining(bc).omega_values
        assert np.abs(alt - omega).max() <= 1e-13, name
    an = analyses["finite_extension_m2"]
    bent = dataclasses.replace(an.basic, e_frame=_conjugated_frame(an))
    assert dense_jones_residual(bent.gns, bent.sub, bent.e) > DEFAULT_TOL.eps_assert
    with pytest.raises(ExtensionInconsistent, match="Jones relation"):
        _stack_jones_residual(bent)
    omega = an.joining.omega_values
    for alt in (joining._trace_route(bent), chunked_trace_route(bent, bent.e)):
        assert np.abs(alt - omega).max() > DEFAULT_TOL.eps_assert


# --- <A, e> spanned by x_i e b_s for generators b_s of A over F, against
# --- all d^2 products a_i e a_j

def _product_span(gns, e, eps_rank=1e-10):
    """span(A e A) from all d^2 products, as the pipeline once built it."""
    n = gns.dim
    rows = linalg.extend_orthonormal(np.zeros((0, n * n), dtype=np.complex128),
                                     span_products(gns, e).reshape(-1, n * n), eps_rank)
    return v.MatrixStarAlgebra(n, np.ascontiguousarray(rows.reshape(-1, n, n)))


def test_generated_span_equals_all_products(spied_analyses):
    """k = ceil(d / dim F) generators suffice on every system here."""
    found, _ = spied_analyses
    for name, an in found.items():
        alg, sub_alg = an.built.system.algebra, an.built.sub.algebra
        old = _product_span(an.gns, an.basic.e)
        assert old.dim == an.basic.algebra.dim, name
        assert _block_inclusion(old, an.basic) <= 1e-12, name
        left_e = an.gns.left_mats @ an.basic.e
        gens = basic._generators(an.built.sub, basic._whitener(left_e), DEFAULT_TOL)
        assert len(gens) == -(-alg.dim // sub_alg.dim), name


def test_finite_extension_offers_96_candidates_not_576(analyses, monkeypatch):
    """The d k = 96 products, each r = 96 block coordinates wide, not the
    d^2 = 576 products, and their rank read per central block of F, from
    the diagonal blocks of that square: 64 = 8^2 and twice 16 = 4^2."""
    an = analyses["finite_extension_m2"]
    ranked, ranks = [], linalg.block_ranks

    def spy(blocks, eps_rank):
        ranked.append([np.shape(b) for b in blocks])
        return ranks(blocks, eps_rank)
    monkeypatch.setattr(linalg, "block_ranks", spy)
    bc = v.build_basic_construction(an.gns, an.built.sub)
    assert bc.span_coords.shape == (96, 96) and bc.algebra.dim == 96
    assert [(r.stop - r.start, c.stop - c.start) for r, c in bc.block_slices] \
        == [(64, 64), (16, 16), (16, 16)]
    assert ranked == [[(64, 64), (16, 16), (16, 16)]] and an.gns.dim ** 2 == 576
    assert len(span_products(an.gns, bc.e)) == 576


def test_no_factorisation_is_n_squared_wide(monkeypatch):
    """No SVD, QR or eigendecomposition of the d = 24 analysis has a side of
    n^2 = 576 or more: the span's, once 96 x 576, is now 96 x 96, and the
    centers of F and of C read coordinates instead of 2 n^2 = 1152 rows."""
    desc = parse_system(SKEW_D24)
    sides = []
    for name in ("svd", "qr", "eigh"):
        def spy(a, *args, _real=getattr(np.linalg, name), **kwargs):
            sides.append(np.shape(a)[-2:])
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    an = analyze_description(desc)
    assert an.passed and an.gns.dim == 24
    assert len(sides) > 20
    assert max(max(s) for s in sides) < 24 ** 2, sorted(sides, key=max)[-3:]


@pytest.mark.parametrize("name", ["weight_ladder_False", "weight_ladder_True",
                                  "skewed_tensor"])
def test_span_rank_margin(spied_analyses, name):
    """The smallest kept singular value of the candidates is 1e8 eps_rank or
    more, and the largest is near 1; the d^2 unwhitened products kept theirs
    at 2, 5e9 and 200 eps_rank here."""
    an = spied_analyses[0][name]
    s = np.linalg.svd(an.basic.span_coords, compute_uv=False)
    assert s[an.basic.algebra.dim - 1] >= 1e8 * DEFAULT_TOL.eps_rank
    assert s[0] <= 10.0


def test_one_generator_short_fails_dimension(analyses, monkeypatch):
    an = analyses["finite_extension_m2"]
    gens = basic._generators
    monkeypatch.setattr(basic, "_generators", lambda *args: gens(*args)[:-1])
    with pytest.raises(CommutantMismatch, match=r"\(dim \d+\) and j\(F\)' \(dim 96 "):
        v.build_basic_construction(an.gns, an.built.sub)


def test_degenerate_draws_fail_to_generate(analyses, monkeypatch):
    """Equal draws b_s never generate A over F, even d of them."""
    an = analyses["finite_extension_m2"]
    monkeypatch.setattr(linalg, "random_complex",
                        lambda rng, shape: np.ones(shape, dtype=np.complex128))
    with pytest.raises(NumericalBreakdown, match="24 generic elements generate"):
        v.build_basic_construction(an.gns, an.built.sub)


# --- the center: commutators with two generic elements against one stacked SVD

def _stacked_center(alg, eps_rank=1e-10):
    """The kernel of all d n^2 x d commutator coordinates at once."""
    d, n = alg.dim, alg.ambient_dim
    cols = np.empty((d * n * n, d), dtype=np.complex128)
    for i in range(d):
        cols[:, i] = (alg.basis[i] @ alg.basis - alg.basis @ alg.basis[i]).reshape(-1)
    kernel = linalg.nullspace(cols, eps_rank)
    return v.MatrixStarAlgebra(
        n, np.ascontiguousarray(np.tensordot(kernel.T, alg.basis, axes=(1, 0))))


def test_blockwise_center_equals_stacked_on_module_corners(analyses):
    """The generic center search on F, from commutator coordinates over its
    dense basis, and on the fixed points C, in <A, e>'s block coordinates,
    against the stacked commutators: one routine, two representations."""
    for name, an in analyses.items():
        bc = an.basic
        z = bc.algebra.from_coords(center_coords(bc.algebra, bc.fixed.T))
        oracle = _stacked_center(joint_commutant(bc))
        assert len(z) == oracle.dim, name
        assert max(oracle.membership_residual(x) for x in z) <= 1e-12, name
        alg = an.built.sub.algebra
        z, oracle = center(alg), _stacked_center(alg)
        assert z.dim == oracle.dim, name
        assert _mutual_inclusion(z, oracle) <= 1e-12, name


def test_center_of_degenerate_draws_fails_its_certificate(monkeypatch):
    """Two equal draws generate a commutative subalgebra of M_2, whose
    commutant is larger than the center; the check against the basis says so."""
    alg = v.generate_algebra([E12], 2)
    monkeypatch.setattr(linalg, "random_complex",
                        lambda rng, shape: np.ones(shape, dtype=np.complex128))
    with pytest.raises(NumericalBreakdown, match="do not generate the algebra"):
        center(alg)


# --- F's blocks: matrix units from one generic pair against the center search

def _m2_times_identity():
    """F = M_2 (x) 1_2 in A = M_4, whose minimal projections have rank 2."""
    one, e12 = np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])
    return v.build_explicit_system(4, [np.kron(e12, one), np.kron(one, e12)],
                                   np.eye(4) / 4, dynamics_unitary=np.eye(4),
                                   sub_generators=[np.kron(e12, one)])


@pytest.fixture(scope="module")
def block_systems(analyses, skew_d24):
    """The subalgebras F whose blocks both routes find."""
    subs = {name: an.built.sub.algebra for name, an in analyses.items()}
    subs[SKEW_D24["name"]] = skew_d24.built.sub.algebra
    subs["swapped_blocks"] = _swapped_blocks(0.3).built.sub.algebra
    subs["m2_times_identity"] = _m2_times_identity().sub.algebra
    return subs


def _assert_blocks_route(name, sub_alg, tol=DEFAULT_TOL):
    units = v.matrix_units(sub_alg, tol)
    oracle = block_decomposition(sub_alg, tol)
    assert len(units.projections) == len(oracle), name
    assert max(float(np.abs(p - q).max())
               for p, q in zip(units.projections, oracle)) <= 1e-12, name
    assert sum(len(u) ** 2 for u in units.units) == sub_alg.dim, name
    return units


def test_matrix_units_give_the_oracle_blocks(block_systems):
    sizes = {}
    for name, sub_alg in block_systems.items():
        units = _assert_blocks_route(name, sub_alg)
        sizes[name] = [(len(u), round(float(np.trace(u[0]).real))) for u in units.units]
    assert sizes["swapped_blocks"] == [(2, 1), (2, 1)]
    assert sizes["m2_times_identity"] == [(2, 2)]  # n_k = 2, rank q_k = 2
    assert sizes["finite_extension_m2"] == [(2, 2), (1, 2), (1, 2)]


def _assert_generators_generate(name, sub_alg):
    """h alone when F is commutative, h and f otherwise, generate F."""
    units = v.matrix_units(sub_alg)
    commutative = all(len(u) == 1 for u in units.units)
    assert len(units.generators) == (1 if commutative else 2), name
    assert v.generate_algebra(list(units.generators),
                              sub_alg.ambient_dim).dim == sub_alg.dim, name
    return len(units.generators)


@pytest.mark.parametrize("name, count", [("classical_4cycle", 1),
                                         ("skew_z4_inversion", 1),
                                         ("finite_extension_m2", 2)])
def test_inclusion_generators_generate_f(analyses, name, count):
    an = analyses[name]
    assert _assert_generators_generate(name, an.built.sub.algebra) == count
    assert len(an.basic.g_coords) == count


def test_inclusion_generators_generate_f_everywhere(block_systems):
    for name, sub_alg in block_systems.items():
        _assert_generators_generate(name, sub_alg)


def test_basic_construction_reads_one_set_of_units(analyses, monkeypatch):
    """One matrix_units per build, and its generators are the inclusion's."""
    calls, units_of = [], algebra.matrix_units

    def spy(alg, tol=DEFAULT_TOL):
        calls.append(units_of(alg, tol))
        return calls[-1]
    monkeypatch.setattr(basic, "matrix_units", spy)
    an = analyses["finite_extension_m2"]
    bc = v.build_basic_construction(an.gns, an.built.sub)
    units, = calls
    gens = an.built.system.algebra.from_coords_stack(bc.g_coords)
    assert np.abs(gens - units.generators).max() <= 1e-12


def _skew_cycle(d):
    """The Z_4 skew product over a d/4-cycle with cocycle [1, 0, ...]."""
    n_x = d // 4
    return {"format_version": 1, "name": f"skew_cycle_d{d}", "kind": "skew_product",
            "parameters": {"weights": [1.0 / n_x] * n_x,
                           "permutation": [(x + 1) % n_x for x in range(n_x)],
                           "group_table": [[(i + j) % 4 for j in range(4)]
                                           for i in range(4)],
                           "group_automorphism": [0, 3, 2, 1],
                           "cocycle": [1] + [0] * (n_x - 1)}}


@pytest.mark.parametrize("d", [24, 48, 96])
def test_matrix_units_separate_the_blocks_wherever_the_oracle_does(d):
    """On the skew ladder at coarse cutoffs, both routes succeed, with the
    same blocks, or both fail, each naming the cutoff."""
    sub_alg = build_from_description(parse_system(_skew_cycle(d))).sub.algebra
    outcomes = []
    for eps in (3e-2, 1e-2, 3e-3, 1e-3):
        tol = v.ToleranceConfig(eps_rank=eps)
        try:
            block_decomposition(sub_alg, tol)
        except NumericalBreakdown as err:
            assert f"rank cutoff {eps:g}" in str(err)
            with pytest.raises(NumericalBreakdown, match=f"^rank cutoff {eps:g}: no "
                               "generic pair gives matrix units of F"):
                v.matrix_units(sub_alg, tol)
            outcomes.append(False)
            continue
        _assert_blocks_route(f"d={d} at {eps:g}", sub_alg, tol)
        outcomes.append(True)
    assert outcomes == {24: [True] * 4, 48: [False] + [True] * 3,
                        96: [False] * 3 + [True]}[d]


def test_non_generating_elements_fail(analyses, monkeypatch):
    """h and f = h generate a commutative algebra, never the noncommutative
    F of dim 6: q_i f q_j = 0 for every two projections, so each is its own
    block and sum n_k^2 = 4, at every draw."""
    pair_units, calls = algebra._pair_units, []

    def same(alg, h, f, tol):
        calls.append(h)
        return pair_units(alg, h, h, tol)
    monkeypatch.setattr(algebra, "_pair_units", same)
    with pytest.raises(NumericalBreakdown,
                       match=r"^rank cutoff 1e-10: no generic pair gives matrix units of "
                             r"F \(sum n_k\^2 = 4 for dim F = 6, residual"):
        v.matrix_units(analyses["finite_extension_m2"].built.sub.algebra)
    assert len(calls) == 20


def test_a_failed_pair_is_redrawn(analyses, monkeypatch):
    """The first pair fails (f = h); the second gives the blocks."""
    pair_units, calls = algebra._pair_units, []

    def first_same(alg, h, f, tol):
        calls.append(h)
        return pair_units(alg, h, h if len(calls) == 1 else f, tol)
    monkeypatch.setattr(algebra, "_pair_units", first_same)
    sub_alg = analyses["finite_extension_m2"].built.sub.algebra
    units = v.matrix_units(sub_alg)
    assert len(calls) == 2
    assert [len(u) for u in units.units] == [2, 1, 1]
    monkeypatch.undo()
    oracle = block_decomposition(sub_alg)
    assert max(float(np.abs(p - q).max())
               for p, q in zip(units.projections, oracle)) <= 1e-12


def test_units_off_the_span_of_f_are_refused(analyses):
    """The certificate's residual, not the count, fails at eps_assert 1e-30."""
    with pytest.raises(NumericalBreakdown,
                       match=r"no generic pair gives matrix units of F \(sum n_k\^2 = 6 "
                             r"for dim F = 6, residual [1-9]"):
        v.matrix_units(analyses["finite_extension_m2"].built.sub.algebra,
                       v.ToleranceConfig(eps_assert=1e-30))


# --- modules: Z(C)(1 - e) against the center of the corner (1 - e) C (1 - e)

def corner_modules(bc, tol=DEFAULT_TOL):
    """The minimal central projections of the corner (1 - e) C (1 - e) of the
    joint commutant C, as find_minimal_modules once built them: an eigh of e,
    the compression of C's basis, an orthonormal basis of the corner and the
    corner's block decomposition."""
    evals, evecs = np.linalg.eigh((bc.e + bc.e.conj().T) / 2)
    q = evecs[:, evals < 0.5]  # orthonormal basis of the complement
    m = q.shape[1]
    if m == 0:
        return []
    compressed = np.einsum("ah,kab,bg->khg", q.conj(), joint_commutant(bc).basis, q,
                           optimize=True)
    rows = linalg.extend_orthonormal(
        np.eye(m, dtype=np.complex128).reshape(1, -1) / np.sqrt(m),
        compressed.reshape(len(compressed), -1), tol.eps_rank)
    corner = v.MatrixStarAlgebra(m, np.ascontiguousarray(rows.reshape(-1, m, m)))
    return [q @ small @ q.conj().T for small in block_decomposition(corner, tol)]


def _assert_module_route(name, bc, blocks):
    oracle = corner_modules(bc)
    assert len(blocks) == len(oracle), name
    for p in bc.algebra.coords(np.stack(oracle)) if oracle else ():
        assert min(float(np.abs(c.coords - p).max()) for c in blocks) <= 1e-10, name


def test_center_of_c_times_complement_equals_corner_center(analyses, skew_d24,
                                                          m2_over_diagonal):
    for name, an in {**analyses, SKEW_D24["name"]: skew_d24}.items():
        _assert_module_route(name, an.basic, an.spectrum.block_modules)
    built = m2_over_diagonal
    bc = v.build_basic_construction(v.build_gns(built.system), built.sub)
    assert bc.dim_complement == 2
    _assert_module_route("m2_over_diagonal", bc, v.find_minimal_modules(bc))


def test_spectrum_consumers_stay_in_block_coordinates(skew_d24, monkeypatch):
    """The module search, the rds verdict, the fiber analysis, the default
    partition and the report read <A, e>'s elements in block coordinates:
    none projects a matrix on H onto the blocks or rebuilds one from them.
    A module given on H costs one projection and the membership residual's
    rebuild."""
    an, bc = skew_d24, skew_d24.basic
    calls = []
    for name in ("coords", "from_coords"):
        def spy(self, *args, _name=name, _orig=getattr(algebra.BlockAlgebra, name)):
            calls.append(_name)
            return _orig(self, *args)
        monkeypatch.setattr(algebra.BlockAlgebra, name, spy)
    blocks = spectrum.find_minimal_modules(bc)
    assert [(c.dim, c.lifted_trace) for c in blocks] \
        == [(c.dim, c.lifted_trace) for c in an.spectrum.block_modules]
    for family in (list(an.spectrum.modules), blocks):
        assert spectrum.rds_verdict(bc, family).verdict
        for module in family:
            spectrum.fiber_analysis(bc, module)
    basic.default_partition(bc)
    report.analysis_to_dict(an)
    assert calls == []
    spectrum.module_candidate(bc, np.eye(bc.gns.dim) - bc.e)
    assert calls == ["coords", "from_coords"]


def _orbit_sides(an):
    """m_k^2 for one block k of each orbit of the block permutation pi,
    alpha(p_k) = p_pi(k), read from the central blocks of F."""
    u = an.built.system.dynamics.unitary
    projs = [p for p, _, _ in an.basic.blocks]
    perm = [min(range(len(projs)), key=lambda l: np.abs(u @ p @ u.conj().T
                                                        - projs[l]).max())
            for p in projs]
    sides, seen = [], set()
    for k, (_, _, m) in enumerate(an.basic.blocks):
        if k not in seen:
            sides.append(m * m)
            while k not in seen:
                seen.add(k)
                k = perm[k]
    return sorted(sides)


@pytest.mark.parametrize("name", ["skew_z4_inversion", "finite_extension_m2"])
def test_fixed_points_are_found_once(analyses, monkeypatch, name):
    """No null space of a dim <A, e> square matrix: one square null space of
    side m_k^2 per orbit of F's blocks, for the return unitary of that
    orbit, which the module and the ergodicity routes share."""
    an = analyses[name]
    dim = an.basic.algebra.dim
    shapes, nullspace = [], linalg.nullspace

    def spy(mat, eps_rank):
        shapes.append(np.shape(mat))
        return nullspace(mat, eps_rank)
    monkeypatch.setattr(linalg, "nullspace", spy)
    analyze_built(name, an.kind, an.built)
    assert all(dim not in shape for shape in shapes), shapes
    assert sorted(r for r, c in shapes if r == c) == _orbit_sides(an), shapes


# --- the fixed points and their center: return unitaries against alpha_bar - 1

@pytest.fixture(scope="module")
def orbit_systems(analyses, skew_d24, m2_over_diagonal):
    """The basic constructions of the shipped systems, the d = 24 skew
    product, M_2 over its diagonal and F = A = M_2 (+) M_2 with swapped
    summands (unrotated and rotated)."""
    out = {name: an.basic for name, an in analyses.items()}
    out[SKEW_D24["name"]] = skew_d24.basic
    out["m2_over_diagonal"] = v.build_basic_construction(
        v.build_gns(m2_over_diagonal.system), m2_over_diagonal.sub)
    for angle in (0.0, 0.3):
        out[f"swapped_blocks_{angle}"] = _swapped_blocks(angle).basic
    return out


def test_orbit_fixed_points_span_the_dense_null_space(orbit_systems):
    for name, bc in orbit_systems.items():
        dense = dense_fixed_points(bc)
        fixed = bc.fixed
        assert fixed.shape == dense.shape, name
        gram = fixed.conj().T @ fixed
        assert np.abs(gram - np.eye(len(gram))).max() <= 1e-12, name
        assert max(linalg.subspace_inclusion_residual(fixed, dense),
                   linalg.subspace_inclusion_residual(dense, fixed)) <= 1e-12, name


def test_eigenprojections_equal_the_generic_center_search(orbit_systems):
    """The eigenprojections of the return unitaries, carried around the
    orbits, are the minimal central projections that the generic center
    search finds on the dense null space; for skew_z4_inversion,
    classical_4cycle and the d = 24 skew product the modules built from them
    are the ones that search gave, to 1e-12."""
    for name, bc in orbit_systems.items():
        oracle = fixed_point_center(bc)
        assert len(oracle) == len(bc.central), name
        for z in oracle:
            assert min(float(np.abs(z - c).max()) for c in bc.central) <= 1e-12, name


@pytest.fixture(scope="module")
def gram_systems(orbit_systems):
    """The orbit systems with the skewed tensor at w = 1e-9 and the weight
    ladder at 2e-10, with and without pairs."""
    from test_pipeline_properties import _skewed_fiber_tensor, _weight_ladder
    cases = dict(orbit_systems)
    cases["skewed_tensor_1e-9"] = analyze_built("t", "tensor",
                                                _skewed_fiber_tensor(1e-9)).basic
    for pairs in (False, True):
        cases[f"weight_ladder_{pairs}"] = analyze_description(
            parse_system(_weight_ladder(2e-10, pairs))).basic
    return cases


def test_factor_rank_equals_the_pivoted_cholesky(gram_systems):
    """The eigendecomposition keeps as many directions of the scaled Gram as
    the pivoted Cholesky factor it replaced, and gamma^H gamma is that Gram,
    also on the skewed tensor at w = 1e-9 and the weight ladder at 2e-10."""
    for name, bc in gram_systems.items():
        jd = v.relative_joining(bc)
        gram = joining._tensor_grams(bc, joining._generating_side(bc),
                                     [(bc.x_coords, bc.b_coords)])[0]
        scaled = gram / np.outer(jd.norms, jd.norms)
        rows, _ = pivoted_cholesky(scaled)
        assert len(rows) == jd.rank == len(bc.u_bar), name
        assert np.abs(jd.gamma.conj().T @ jd.gamma - scaled).max() <= 1e-12, name


def test_block_route_equals_the_full_matrix_oracles(gram_systems):
    """Per central block of F, the span rank, the factor of the joining's
    scaled Gram and the equivalence R against one SVD of the d k x r span,
    one eigh of the whole Gram and the dense R = C (gamma^H)^+ D^-1/2, on
    the shipped systems, the d = 24 skew product, the skewed tensor at
    w = 1e-9 and the weight ladder at 2e-10."""
    for name, bc in gram_systems.items():
        slices = bc.block_slices
        assert linalg.block_ranks([bc.span_coords[g, c] for g, c in slices],
                                  DEFAULT_TOL.eps_rank) \
            == [m * m for m in bc.algebra.sizes], name
        assert full_span_rank(bc) == bc.algebra.dim, name
        jd = v.relative_joining(bc)
        gram = joining._tensor_grams(bc, joining._generating_side(bc),
                                     [(bc.x_coords, bc.b_coords)])[0]
        scaled = gram / np.outer(jd.norms, jd.norms)
        rows, resid = full_factor(scaled)
        assert len(rows) == jd.rank == sum(jd.ranks) == len(bc.u_bar), name
        assert np.abs(jd.gamma.conj().T @ jd.gamma - scaled).max() <= 1e-12, name
        assert np.abs(rows.T @ rows.conj() - jd.gamma.conj().T @ jd.gamma).max() \
            <= 1e-12, name
        assert max(resid, jd.factor_residual) <= 1e-11, name
        dense, defining, unitary, inter = full_equivalence(jd)
        r, isometry, intertwine = v.joining_equivalence(jd)
        assert np.abs(r - dense).max() <= 1e-12, name
        assert max(defining, unitary, inter, isometry, intertwine) <= 1e-11, name
        for g, c in slices:  # R, like gamma, keeps to the blocks
            assert np.abs(jd.gamma[c][:, np.r_[:g.start, g.stop:jd.gamma.shape[1]]]) \
                .max(initial=0.0) == 0.0, name
            assert np.abs(dense[c][:, np.r_[:c.start, c.stop:jd.rank]]) \
                .max(initial=0.0) <= 1e-12, name


def test_no_factorisation_is_wider_than_d(monkeypatch):
    """Every SVD, QR and eigendecomposition of the d = 24 skew product has
    a side of at most d = 24: the span's rank and the joining's factor,
    once 96 x 96, are read per central block of F, 16 x 16 each."""
    desc = parse_system(SKEW_D24)
    sides = []
    for name in ("svd", "qr", "eigh"):
        def spy(a, *args, _real=getattr(np.linalg, name), **kwargs):
            sides.append(np.shape(a)[-2:])
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    an = analyze_description(desc)
    assert an.passed and an.gns.dim == 24 and an.basic.algebra.dim == 96
    assert max(min(s) for s in sides) <= 24, sorted(sides, key=min)[-3:]
    assert (16, 16) in sides


def test_batched_grams_equal_the_einsum_oracle(gram_systems):
    """The four Grams of a joining, against the generating tensors, the
    tensors moved by the dynamics and the F-subspace in both descriptions,
    from one product per right-hand side, equal the einsum that formed each
    of them, also on the skewed tensor and the weight ladder."""
    for name, bc in gram_systems.items():
        gens = (bc.x_coords, bc.b_coords)
        m_alpha = bc.gns.system.dynamics.matrix
        alg = bc.gns.system.algebra
        f, one = bc.sub.coords_in_parent, alg.coords(alg.identity())[None]
        rights = [gens, tuple(z @ m_alpha.T for z in gens), (f, one), (one, f)]
        grams = joining._tensor_grams(bc, joining._generating_side(bc), rights)
        for right, gram in zip(rights, grams):
            oracle = einsum_tensor_gram(bc, right)
            assert gram.shape == oracle.shape, name
            assert np.abs(gram - oracle).max() <= 1e-12, name


def test_relative_joining_peak_is_below_the_einsum_layout(skew_d24):
    """The four einsum Grams with their left(D(a_i)) and j stacks peaked at
    2 169 075 traced bytes in relative_joining at the d = 24 skew product."""
    bc = skew_d24.basic
    tracemalloc.start()
    try:
        v.relative_joining(bc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2_169_075


@pytest.mark.parametrize("stage, bound", [
    ("build_basic_construction", 1_130_000), ("relative_joining", 1_165_000)])
def test_stage_peak_is_below_the_dense_projection_layout(skew_d24, stage, bound):
    """Read through its frame E_0, the Jones projection e adds no n x n
    stack to the d = 24 skew product's basic construction (935 kB traced,
    against 1 333 kB with the dense e, its d x n x n Jones stacks and the
    corners formed twice) or to its joining (1 027 kB, against 1 268 kB
    with route two's n x n transposes)."""
    an = skew_d24
    args = (an.gns, an.built.sub) if stage == "build_basic_construction" else (an.basic,)
    tracemalloc.start()
    try:
        getattr(v, stage)(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_return_unitaries_that_disagree_with_the_null_space_are_refused(
        analyses, monkeypatch):
    """Eigenvalues merged into one cluster give sum mult^2 = 4 for a kernel
    of dim 2; eigenvectors of another matrix give projections off the fixed
    points.  Either way the two routes disagree, and the message names the
    cutoff."""
    an = analyses["classical_4cycle"]
    modes = basic.eigenmodes
    rotation = np.linalg.qr(linalg.random_complex(np.random.default_rng(0), (2, 2)))[0]
    faults = {  # the dimensions in the message: sum mult^2, then the kernel's
        r"\[4\] and \[2\]": lambda lam, vecs: (np.ones_like(lam), vecs),
        r"\[2\] and \[2\]": lambda lam, vecs: (lam, rotation)}
    for dims, fault in faults.items():
        monkeypatch.setattr(basic, "eigenmodes",
                            lambda m, tol, f=fault: f(*modes(m, tol)))
        with pytest.raises(NumericalBreakdown,
                           match=f"rank cutoff 1e-10: the eigenprojections of the "
                                 f"return unitaries and the null space of alpha_bar "
                                 f"- 1 disagree \\(dimensions {dims}, span residual"):
            v.build_basic_construction(an.gns, an.built.sub)


def test_a_moved_fixed_point_is_refused(analyses, monkeypatch):
    """At eps_rank = 10 the orbit null space keeps the whole block, as no
    chord |lam_i - lam_j| <= 2 exceeds 10 max(1, s_0); both routes then
    agree on one cluster, and the dense lifted dynamics moves the extra
    directions."""
    an = analyses["classical_4cycle"]
    fixed_points = basic._fixed_points

    def coarse(alg, perm, unitaries, tol):
        return fixed_points(alg, perm, unitaries, v.ToleranceConfig(eps_rank=10.0))
    monkeypatch.setattr(basic, "_fixed_points", coarse)
    with pytest.raises(NumericalBreakdown, match=r"rank cutoff 1e-10: the lifted "
                                                  r"dynamics moves a fixed point "
                                                  r"\(residual 1\.00e\+00\)"):
        v.build_basic_construction(an.gns, an.built.sub)


def test_a_kernel_without_the_identity_is_refused(analyses, monkeypatch):
    """The orbit's null space with the identity projected out: the existing
    breakdown that names the cutoff."""
    an = analyses["skew_z4_inversion"]
    nullspace = linalg.nullspace

    def without_identity(mat, eps_rank):
        kernel = nullspace(mat, eps_rank)
        m = math.isqrt(len(mat))
        if mat.shape != (m * m, m * m):  # not an orbit's kernel
            return kernel
        ident = np.eye(m).reshape(-1, 1) / np.sqrt(m)
        return linalg.orthonormal_columns(kernel - ident @ (ident.T @ kernel), 1e-10)
    monkeypatch.setattr(linalg, "nullspace", without_identity)
    with pytest.raises(NumericalBreakdown, match="rank cutoff 1e-10 drops the "
                                                 "identity from the fixed points"):
        v.build_basic_construction(an.gns, an.built.sub)


def test_skew_d24_fits_in_one_gib():
    """The stacked-commutant module search needed about 1.5 GB here."""
    child = textwrap.dedent(f"""
        import resource
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = {ADDRESS_SPACE_CAP}
        if hard != resource.RLIM_INFINITY:
            cap = min(cap, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        from vnspec.descriptions import parse_system
        from vnspec.pipeline import analyze_built, analyze_description
        an = analyze_description(parse_system({SKEW_D24!r}))
        assert an.passed and an.basic.algebra.dim == 96
        print("ok")
    """)
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"


def test_skew_d160_is_too_large_for_384_mib(tmp_path):
    """d = 160 does not fit under 384 MiB of address space, and the CLI says
    so: the build completes, as its linear checks read one generic element
    and rebuild no stack of the basis, and the GNS stage stops in build_gns,
    forming the d x n x n left_mats.  d = 128, the next size down on the size
    ladder, fits, as the basic construction reads the Jones projection
    through its frame E_0 and forms no d x n x n stack of it."""
    n_x = 40
    desc = {**SKEW_D24, "name": "skew_x40", "parameters": {
        **SKEW_D24["parameters"], "weights": [1.0 / n_x] * n_x,
        "permutation": [(x + 1) % n_x for x in range(n_x)],
        "cocycle": [1] + [0] * (n_x - 1)}}
    path = tmp_path / "skew_d160.json"
    path.write_text(json.dumps(desc))
    child = textwrap.dedent(f"""
        import resource, sys
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = {SMALL_ADDRESS_SPACE_CAP}
        if hard != resource.RLIM_INFINITY:
            cap = min(cap, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        from vnspec import cli
        sys.exit(cli.main(["analyze", {str(path)!r}, "--quiet"]))
    """)
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "too large for the available memory" in proc.stderr
    assert "Traceback" not in proc.stderr


# --- the joining Gram: the scaled factor against the full eigendecomposition

def coordinate_kronecker_terms(gns, e):
    """p[i, k] = e R coords(b_k* b_i) and q[i, k] = e R coords(b_k b_i*) for
    R = to_vector, by the coordinate passes the joining once ran."""
    alg = gns.system.algebra
    d = alg.dim
    p_vecs = np.empty((d, d, gns.dim), dtype=np.complex128)
    q_vecs = np.empty((d, d, gns.dim), dtype=np.complex128)
    adj = alg.basis.conj().transpose(0, 2, 1)
    for i in range(d):
        p_vecs[i] = (e @ gns.to_vector @ alg.coords_stack(adj @ alg.basis[i]).T).T
        q_vecs[i] = (e @ gns.to_vector @ alg.coords_stack(alg.basis @ adj[i]).T).T
    return p_vecs, q_vecs


def joining_gram_by_eigh(gns, bc, tol=DEFAULT_TOL):
    """The joining Gram over the d^2 simple tensors with its kept eigenpairs,
    by the d^2 x d^2 eigh the joining once used."""
    d = gns.system.algebra.dim
    p_vecs, q_vecs = coordinate_kronecker_terms(gns, bc.e)
    gram = np.einsum("ikh,jlh->ijkl", p_vecs.conj(), q_vecs,
                     optimize=True).reshape(d * d, d * d)
    gram = (gram + gram.conj().T) / 2
    vals, vecs = np.linalg.eigh(gram)
    if vals.min() < -tol.eps_assert:
        raise StateNotPositive(f"joining state has negative part {vals.min():.2e}")
    keep = vals > tol.eps_rank
    return gram, vals[keep], vecs[:, keep]


def _bar_columns(bc):
    """gamma_bar(a_i e a_j) as column i d + j, over all d^2 basis pairs."""
    gns = bc.gns
    d = gns.system.algebra.dim
    cols = np.empty((len(bc.u_bar), d * d), dtype=np.complex128)
    for i in range(d):
        blocks = gns.left_mats[i] @ bc.e @ gns.left_mats
        cols[:, i * d:(i + 1) * d] = bc.bar_to_vector @ bc.algebra.coords(blocks).T
    return cols


def simple_tensor_vectors(jd):
    """GNS vectors of the d^2 simple tensors a_i (x) j(a_j), column i d + j,
    read back through (gamma^H)^+ from their inner products with the
    generating tensors."""
    bc = jd.basic
    eye = np.eye(bc.gns.system.algebra.dim)
    inner = joining._tensor_grams(bc, joining._generating_side(bc), [(eye, eye)])[0]
    return joining._read_back(jd.gamma, jd.norms) @ inner


def _generating_gram(bc, gram):
    """The Gram of the generating tensors x_i (x) j(b_s), restricted from a
    Gram over the d^2 simple tensors by the generators' coordinates."""
    kron = np.kron(bc.x_coords, bc.b_coords)
    return kron.conj() @ gram @ kron.T


def _assert_factor_route(name, an):
    """The d^2 simple tensors, read back through the generating factor, have
    the Gram that the full eigendecomposition factors; gamma factors the
    Jacobi-scaled Gram of the generating tensors."""
    jd = an.joining
    gram, lam, _ = joining_gram_by_eigh(an.gns, an.basic)
    assert jd.rank == len(lam), name
    vecs = simple_tensor_vectors(jd)
    assert np.abs(vecs.conj().T @ vecs - gram).max() <= 1e-12, name
    scaled = _generating_gram(an.basic, gram) / np.outer(jd.norms, jd.norms)
    assert np.abs(jd.gamma.conj().T @ jd.gamma - scaled).max() <= 1e-12, name
    assert jd.factor_residual <= 1e-12, name


def test_factor_equals_eigh_route(analyses):
    for name, an in analyses.items():
        _assert_factor_route(name, an)


def test_skew_d24_factor_equals_eigh_route(skew_d24):
    _assert_factor_route(SKEW_D24["name"], skew_d24)


def _assert_relation_on_every_simple_tensor(name, an):
    """R gamma(a_i (x) j(a_j)) = gamma_bar(a_i e a_j) on all d^2 basis pairs,
    which the equivalence checks on the d k generating tensors only."""
    vecs = simple_tensor_vectors(an.joining)
    assert np.abs(an.equivalence @ vecs - _bar_columns(an.basic)).max() <= 1e-12, name


def test_equivalence_holds_on_every_simple_tensor(analyses):
    for name, an in analyses.items():
        _assert_relation_on_every_simple_tensor(name, an)


def test_skew_d24_equivalence_holds_on_every_simple_tensor(skew_d24):
    _assert_relation_on_every_simple_tensor(SKEW_D24["name"], skew_d24)


def _hermitian(spectrum, seed=0):
    """A Hermitian matrix of the given spectrum in a seeded random basis."""
    n = len(spectrum)
    u, _ = np.linalg.qr(linalg.random_complex(np.random.default_rng(seed), (n, n)))
    return (u * np.asarray(spectrum)) @ u.conj().T


def test_factor_rejects_a_negative_eigenvalue():
    gram = _hermitian([3.0, 2.0, 1.0, 0.5, -1e-6] + [0.0] * 11)
    with pytest.raises(StateNotPositive, match=r"^joining state has a negative part: "
                       r"smallest eigenvalue -1\.00e-06$"):
        v.factor_gram(gram)


def test_factor_that_loses_rank_names_the_cutoff():
    """Eigenvalues 1e-3 and 1e-6 of a positive Gram fall below the cutoff
    1e-2: a rank decision that drops part of it, not a state that fails to
    be positive."""
    gram = _hermitian([4.0, 1.0, 1e-3, 1e-6] + [0.0] * 12, seed=2)
    with pytest.raises(NumericalBreakdown) as err:
        v.factor_gram(gram, v.ToleranceConfig(eps_rank=1e-2))
    assert not isinstance(err.value, StateNotPositive)
    assert re.fullmatch(r"rank cutoff 0\.01 loses rank in the joining: it drops a part "
                        r"1\.00e-03 of the scaled Gram at rank 2, largest dropped "
                        r"eigenvalue 1\.00e-03", str(err.value)), str(err.value)


def test_factor_finds_the_rank_of_a_positive_matrix():
    gram = _hermitian([4.0, 1.0, 1e-3, 1e-6, 1e-9] + [0.0] * 20, seed=1)
    rows, resid, smallest, dropped = v.factor_gram(gram)
    assert rows.shape == (5, 25)
    assert resid <= 1e-12
    assert np.abs(rows.T @ rows.conj() - gram).max() <= 1e-12
    assert np.abs(rows @ rows.conj().T - np.diag(np.diag(rows @ rows.conj().T))).max() \
        <= 1e-12  # orthogonal rows
    assert 1e-10 < smallest <= 1e-9
    assert abs(dropped) <= 1e-12


# --- conjugation automorphisms: invariance against the generic check --------

def _unitarity_after_generic_check(system_like):
    m = system_like.dynamics.matrix
    validate_automorphism(system_like.algebra, system_like.dynamics,
                          system_like.trace, v.DEFAULT_TOL)
    return float(np.abs(m @ m.conj().T - np.eye(len(m))).max())


def _assert_lifted_dynamics_route(name, bc):
    """The dense lifted dynamics passes the generic check, and the block
    matrix moves every dense basis element as conjugation by U does."""
    dense, _, _, dyn = _dense_lifted_system(bc)
    lifted = dataclasses.make_dataclass("Lifted", ["algebra", "dynamics", "trace"])
    assert _unitarity_after_generic_check(lifted(dense, dyn, bc.trace)) <= 1e-12, name
    u, alg = bc.gns.u_matrix, bc.algebra
    moved = alg.from_coords(alg.coords(dense.basis) @ bc.dynamics.matrix.T)
    assert np.abs(moved - u @ dense.basis @ u.conj().T).max() <= 1e-12, name


def test_conjugation_maps_pass_the_generic_check(analyses):
    for name, an in analyses.items():
        assert _unitarity_after_generic_check(an.built.system) <= 1e-12, name
        _assert_lifted_dynamics_route(name, an.basic)


def test_skew_d24_lifted_dynamics_passes_the_generic_check(skew_d24):
    assert skew_d24.basic.algebra.dim == 96
    _assert_lifted_dynamics_route(SKEW_D24["name"], skew_d24.basic)


def _swapped_blocks(angle):
    """F = A = M_2 (+) M_2, with dynamics that swap the summands after
    rotating one by ``angle``, analysed."""
    e12, zero = np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2))
    gens = [np.block([[e12, zero], [zero, zero]]), np.block([[zero, zero], [zero, e12]])]
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    swap = np.block([[zero, rot], [np.eye(2), zero]])
    built = v.build_explicit_system(4, gens, np.eye(4) / 4, dynamics_unitary=swap,
                                    sub_generators=gens)
    return analyze_built("swapped_blocks", "explicit", built)


@pytest.mark.parametrize("angle", [0.0, 0.3])
def test_lifted_dynamics_across_noncommutative_blocks(angle):
    """F = A = M_2 (+) M_2, with dynamics that swap the summands after
    rotating one, so that alpha(q_k) is a minimal projection of the other
    block but, for a rotation, not its q: the partial isometry w_k carries
    it there.  The block route agrees with the dense one."""
    an = _swapped_blocks(angle)
    assert an.passed and [(n, m) for _, n, m in an.basic.blocks] == [(2, 2), (2, 2)]
    _assert_lifted_dynamics_route("swapped_blocks", an.basic)
    _assert_block_coordinates_route("swapped_blocks", an.basic)


def test_lifted_dynamics_refuses_a_failed_partial_isometry(analyses, monkeypatch):
    """The residual of w_k, from alpha(q_k) to q_pi(k) in the block with
    n_k = 2, is part of the lifted dynamics' residual."""
    isometry = basic.partial_isometry

    def failed(target, f, source):
        return isometry(target, f, source)[0], 0.5
    monkeypatch.setattr(basic, "partial_isometry", failed)
    an = analyses["finite_extension_m2"]
    with pytest.raises(NumericalBreakdown, match=r"^lifted system: conjugation by the "
                       r"unitary does not map the blocks of <A, e> onto each other "
                       r"\(residual 5\.00e-01\)$"):
        v.build_basic_construction(an.gns, an.built.sub)


def _unchecked_conjugation(alg, u):
    """The coordinate matrix automorphism_from_unitary builds, unchecked."""
    images = u @ alg.basis @ u.conj().T
    return v.StarAutomorphism(np.ascontiguousarray(alg.coords_stack(images).T), u)


BAD_UNITARIES = {  # density, unitary and the fault, on the diagonal algebra of M_2
    "not_normalising": (np.eye(2) / 2,
                        np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0),
                        "onto itself"),
    "moves_trace": (np.diag([0.3, 0.7]), np.array([[0.0, 1.0], [1.0, 0.0]]),
                    "preserve the trace"),
}


@pytest.mark.parametrize("name", sorted(BAD_UNITARIES))
def test_generic_check_rejects_what_invariance_rejects(name):
    density, u, fault = BAD_UNITARIES[name]
    alg = v.generate_algebra([np.diag([1.0, -1.0])], 2)
    trace = v.trace_functional(density)
    with pytest.raises(NotAutomorphism, match=fault):
        v.automorphism_from_unitary(alg, u, trace)
    with pytest.raises(NumericalBreakdown):
        validate_automorphism(alg, _unchecked_conjugation(alg, u), trace)


# --- Cesaro averages: the eigenbasis of the dynamics against the per-step loop

def _stepwise_cesaro(system, sub, element, n_max, early_exit):
    """The per-step loop cesaro_sequence ran before it read blocks of steps."""
    alg = system.algebra
    a = np.asarray(element, dtype=np.complex128)
    exp = sub.expectation
    coords = alg.coords(a)
    a_adj = a.conj().T
    cur = coords
    sums = np.empty(n_max, dtype=np.float64)
    total = 0.0
    for n in range(1, n_max + 1):
        cur = system.dynamics.matrix @ cur
        prod = a_adj @ alg.from_coords(cur)
        f = alg.from_coords(exp.matrix @ alg.coords(prod))
        total += float(system.trace.value(f.conj().T @ f).real)
        sums[n - 1] = total / n
        if early_exit and n % 2 == 0 and n >= 4:
            if abs(sums[n - 1] - sums[n // 2 - 1]) < CESARO_EXIT_TOL:
                return sums[:n].copy()
    return sums


CESARO_SYSTEMS = {p.stem: p.read_text() for p in shipped_system_paths()}
CESARO_SYSTEMS[SKEW_D24["name"]] = json.dumps(SKEW_D24)
LONGEST = 3000


def _admissible(name):
    built = build_from_description(parse_system(CESARO_SYSTEMS[name]))
    return built, admissible_elements(built.system, built.sub)


@pytest.mark.parametrize("name", sorted(CESARO_SYSTEMS))
def test_cesaro_blocks_equal_stepwise_loop(name):
    """Horizons 1000, 2048 and 3000 end inside, at and past a block edge."""
    built, elements = _admissible(name)
    for label, a in elements:
        oracle = _stepwise_cesaro(built.system, built.sub, a, LONGEST, False)
        for n_max in (2048, 1000, LONGEST):
            seq = v.cesaro_sequence(built.system, built.sub, a, n_max=n_max,
                                    early_exit=False)
            assert len(seq) == n_max, (name, label)
            assert np.abs(seq - oracle[:n_max]).max() <= 1e-12, (name, label)


@pytest.mark.parametrize("name", sorted(CESARO_SYSTEMS))
def test_cesaro_early_exit_equals_stepwise_loop(name):
    built, elements = _admissible(name)
    n_max = v.DEFAULT_TOL.cesaro_n_max
    for label, a in elements:
        oracle = _stepwise_cesaro(built.system, built.sub, a, n_max, True)
        seq = v.cesaro_sequence(built.system, built.sub, a)
        assert len(seq) == len(oracle), (name, label)
        assert np.abs(seq - oracle).max() <= 1e-12, (name, label)


def test_pipeline_cesaro_equals_the_public_sequence(analyses, skew_d24):
    """The spectrum report runs the sequences of all admissible elements at
    once from their coordinates, each cut at its own early exit; each has
    the length of the public per-element sequence of the element's matrix
    and agrees with it to 1e-14."""
    for name, an in {**analyses, SKEW_D24["name"]: skew_d24}.items():
        system, sub = an.built.system, an.built.sub
        elements = admissible_elements(system, sub)
        assert [s.label for s in an.spectrum.cesaro] == [lab for lab, _ in elements], name
        for sample, (label, a) in zip(an.spectrum.cesaro, elements):
            seq = v.cesaro_sequence(system, sub, a)
            assert len(sample.values) == len(seq), (name, label)
            assert np.abs(sample.values - seq).max() <= 1e-14, (name, label)


def test_cesaro_rows_past_block_edges_equal_one_row_at_a_time():
    """All 18 elements of the finite extension over 3000 steps without early
    exit, past two block edges, against each element run alone."""
    built, elements = _admissible("finite_extension_m2")
    coords = built.system.algebra.coords_stack(np.stack([a for _, a in elements]))
    rows = spectrum._cesaro_rows(built.system, built.sub, coords, LONGEST,
                                 DEFAULT_TOL, early_exit=False)
    assert len(rows) == len(elements) == 18
    for (label, _), c, seq in zip(elements, coords, rows):
        alone = spectrum._cesaro_rows(built.system, built.sub, c[None], LONGEST,
                                      DEFAULT_TOL, early_exit=False)[0]
        assert len(seq) == LONGEST, label
        assert np.abs(seq - alone).max() <= 1e-14, label


def test_cesaro_rows_stop_each_at_its_own_exit():
    """With blocks of two steps, the zero element stops at n = 4 in the
    second block and the elements of tensor_diag2_m2 at n = 8 in the
    fourth, while the others run on; each equals the public sequence of
    its element."""
    built, elements = _admissible("tensor_diag2_m2")
    system, sub = _cold(built)
    system.__dict__["mode_powers"] = built.system.mode_powers[:, :2]
    mats = [np.zeros_like(elements[0][1])] + [a for _, a in elements]
    coords = system.algebra.coords_stack(np.stack(mats))
    rows = spectrum._cesaro_rows(system, sub, coords, 64, DEFAULT_TOL)
    assert [len(r) for r in rows] == [4] + [8] * len(elements)
    for i, (a, seq) in enumerate(zip(mats, rows)):
        alone = v.cesaro_sequence(built.system, built.sub, a, n_max=64)
        assert np.abs(seq - alone).max() <= 1e-12, i


def test_cesaro_memory_does_not_grow_with_horizon():
    """Every iterate of 2**18 steps at d = 24 would take 96 MiB."""
    built, elements = _admissible("finite_extension_m2")
    _, a = elements[0]
    tracemalloc.start()
    try:
        seq = v.cesaro_sequence(built.system, built.sub, a, n_max=2 ** 18,
                                early_exit=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(seq) == 2 ** 18 and np.all(np.isfinite(seq))
    assert peak < 16 * 2 ** 20


def _cold(built):
    """Copies of the system and subsystem that hold no Cesaro data yet."""
    system = dataclasses.replace(built.system)
    return system, dataclasses.replace(built.sub, parent=system)


@pytest.mark.parametrize("name", sorted(CESARO_SYSTEMS))
def test_cesaro_held_data_give_what_fresh_data_give(name):
    """Warm: the powers and the whitened E_F formed by an earlier call and
    held; cold: formed by this call.  Equal bit for bit at the default
    horizon and at N = 2048 without early exit."""
    built, elements = _admissible(name)
    for label, a in elements:
        for kwargs in ({}, {"n_max": 2048, "early_exit": False}):
            warm = v.cesaro_sequence(built.system, built.sub, a, **kwargs)
            assert "mode_powers" in vars(built.system), (name, label)
            assert "whitened_expectation" in vars(built.sub), (name, label)
            system, sub = _cold(built)
            cold = v.cesaro_sequence(system, sub, a, **kwargs)
            assert np.array_equal(warm, cold), (name, label, kwargs)


def test_cesaro_forms_the_powers_and_the_map_once(monkeypatch):
    """All 18 admissible elements of finite_extension_m2 at the benchmark's
    shape share one cumprod and one Cholesky factor."""
    built, elements = _admissible("finite_extension_m2")
    assert len(elements) == 18
    calls = {"cumprod": 0, "cholesky": 0}

    def counted(module, fname):
        inner = getattr(module, fname)

        def wrapper(*args, **kwargs):
            calls[fname] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, fname, wrapper)

    counted(np, "cumprod")
    counted(np.linalg, "cholesky")
    for _, a in elements:
        v.cesaro_sequence(built.system, built.sub, a, n_max=2048, early_exit=False)
    assert calls == {"cumprod": 1, "cholesky": 1}


def test_cesaro_projects_its_element_once(monkeypatch):
    """The membership check and the Cesaro map read one coords(a) of the
    element, not one each."""
    built, elements = _admissible("finite_extension_m2")
    calls, coords = [], algebra.MatrixStarAlgebra.coords

    def spy(alg, mat):
        calls.append(alg)
        return coords(alg, mat)
    monkeypatch.setattr(algebra.MatrixStarAlgebra, "coords", spy)
    for _, a in elements:
        calls.clear()
        v.cesaro_sequence(built.system, built.sub, a, n_max=2048, early_exit=False)
        assert calls == [built.system.algebra]


def test_a_replaced_system_reads_its_own_powers():
    """Conjugation keeps every chord, so the conjugated eigenvalues keep the
    partition and its representatives, the lowest index of each cluster."""
    built, _ = _admissible("group_z4_inversion")
    lam, vecs = built.system.modes
    first = built.system.clusters.argmax(axis=0)
    held = built.system.mode_powers
    turned = dataclasses.replace(built.system, modes=(lam.conj().copy(), vecs))
    assert np.array_equal(turned.mode_powers[:, 0], lam.conj()[first])
    assert np.array_equal(turned.mode_powers, held.conj())
    assert built.system.mode_powers is held
    assert np.array_equal(held[:, 0], lam[first])


@pytest.mark.parametrize("name", ["finite_extension_m2", SKEW_D24["name"]])
def test_held_cesaro_data_are_read_only_and_right(name):
    """Row c of the powers holds mu_c^n in column n - 1, and mu_c^n is every
    lam_j^n of cluster c to 1e-12; the whitened E_F W satisfies
    W^H W = G E_F, so |W c|^2 = mu(E_F(x)* E_F(x)) for x with coordinates c."""
    built, _ = _admissible(name)
    system, sub = built.system, built.sub
    lam, clusters = system.modes[0], system.clusters
    powers, w = system.mode_powers, sub.whitened_expectation
    assert np.array_equal(clusters.sum(axis=1), np.ones(len(lam)))
    assert np.array_equal(clusters, clusters.astype(bool))
    assert powers.shape == (clusters.shape[1], algebra.CESARO_BLOCK)
    for n in (1, 2, 7, algebra.CESARO_BLOCK):
        assert np.abs(clusters @ powers[:, n - 1] - lam ** n).max() <= 1e-12
    assert system.cluster_spread == np.abs(clusters @ powers[:, 0] - lam).max() <= 1e-15
    assert w.shape == (sub.algebra.dim, system.algebra.dim)
    assert np.abs(w.conj().T @ w - system.gram @ sub.expectation.matrix).max() <= 1e-12
    for held in (powers, w):
        assert not held.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            held[0, 0] = 0.0
    assert not clusters.flags.writeable


def test_finite_extension_powers_have_one_row_per_cluster():
    """The d = 24 eigenvalues of the finite extension's dynamics are +-1, so
    its held powers have 2 rows, not 24."""
    system = _admissible("finite_extension_m2")[0].system
    assert system.algebra.dim == 24
    assert system.mode_powers.shape == (2, algebra.CESARO_BLOCK)


@pytest.mark.parametrize("name", sorted(CESARO_SYSTEMS) + ["m3_generic"])
def test_cesaro_on_clusters_equals_the_d_wide_route(name, request):
    """Every admissible element's 3000 averages, past two block edges with
    no early exit, against the route over all d eigenvalues."""
    built = request.getfixturevalue(name) if name == "m3_generic" \
        else _admissible(name)[0]
    system, sub = built.system, built.sub
    coords = spectrum._admissible_coords(system, sub, DEFAULT_TOL, 0)
    rows = spectrum._cesaro_rows(system, sub, coords, LONGEST, DEFAULT_TOL,
                                 early_exit=False)
    oracle = d_wide_cesaro_rows(system, sub, coords, LONGEST)
    assert len(rows) == len(oracle) == len(coords)
    for i, (seq, want) in enumerate(zip(rows, oracle)):
        assert len(seq) == LONGEST, (name, i)
        assert np.abs(seq - want).max() <= 1e-12, (name, i)


def test_merging_distinct_eigenvalues_is_a_breakdown(monkeypatch):
    """A partition that merges the finite extension's eigenvalues +1 and -1
    moves the Cesaro terms by far more than eps_assert: the sequence is
    refused with the cutoff that formed the clusters, not returned."""
    monkeypatch.setattr(linalg, "circle_clusters",
                        lambda lam, eps_rank: [np.arange(len(lam))])
    built, elements = _admissible("finite_extension_m2")
    assert built.system.mode_powers.shape == (1, algebra.CESARO_BLOCK)
    with pytest.raises(NumericalBreakdown,
                       match=r"^rank cutoff 1e-10 merges eigenvalues of the dynamics "
                             r"2\.00e\+00 apart, which may move a Cesaro term by"):
        v.cesaro_sequence(built.system, built.sub, elements[0][1])


@pytest.mark.parametrize("name", sorted(CESARO_SYSTEMS))
def test_modes_diagonalise_the_dynamics(name):
    system = _admissible(name)[0].system
    lam, vecs = system.modes
    alpha = system.dynamics.matrix
    assert np.abs(vecs.conj().T @ vecs - np.eye(len(lam))).max() <= 1e-12
    assert np.abs(np.abs(lam) - 1.0).max() <= 1e-14
    assert np.abs(alpha @ vecs - vecs * lam).max() <= DEFAULT_TOL.eps_assert


@pytest.fixture(scope="module")
def m3_generic():
    """M_3 over the scalars under Ad(u) for a seeded random unitary u: the
    eigenvalues exp(i (theta_j - theta_k)) of the dynamics are not roots of
    unity, so no Cesaro average settles into a short period."""
    rng = np.random.default_rng(43)
    u, _ = np.linalg.qr(linalg.random_complex(rng, (3, 3)))
    units = np.eye(3, dtype=complex)
    built = v.build_explicit_system(3, [np.outer(units[0], units[1]),
                                        np.outer(units[1], units[2])],
                                    np.eye(3) / 3, u)
    assert built.system.algebra.dim == 9 and built.sub.algebra.dim == 1
    return built


def test_cesaro_with_a_generic_spectrum_equals_stepwise_loop(m3_generic):
    built = m3_generic
    phases = np.angle(built.system.modes[0]) / np.pi
    assert np.abs(phases * 24 - np.round(phases * 24)).max() > 1e-3
    for label, a in admissible_elements(built.system, built.sub):
        oracle = _stepwise_cesaro(built.system, built.sub, a, LONGEST, False)
        for n_max in (1000, 2048, LONGEST):
            seq = v.cesaro_sequence(built.system, built.sub, a, n_max=n_max,
                                    early_exit=False)
            assert len(seq) == n_max, label
            assert np.abs(seq - oracle[:n_max]).max() <= 1e-12, label


class _ProductSpy(np.ndarray):
    """An array that records the shape of every matrix product it enters;
    what it computes comes back as a plain array."""
    products: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(xs):
            return tuple(x.view(np.ndarray) if isinstance(x, _ProductSpy) else x
                         for x in xs)
        if "out" in kwargs:
            kwargs["out"] = plain(kwargs["out"])
        result = getattr(ufunc, method)(*plain(inputs), **kwargs)
        if ufunc is np.matmul:
            _ProductSpy.products.append(np.shape(result))
        return result


def test_cesaro_reads_one_decomposition_and_forms_no_square_product(monkeypatch):
    """Every array the system and F carry records its products: none has d
    rows and more than one column, and no decomposition is taken, so the
    admissible elements of one system share the eigenbasis system() found."""
    built, elements = _admissible("finite_extension_m2")
    system, sub = built.system, built.sub
    d = system.algebra.dim

    def spy(arr):
        return arr.view(_ProductSpy)
    spied = dataclasses.replace(
        system, gram=spy(system.gram), table=spy(system.table), star=spy(system.star),
        dynamics=dataclasses.replace(system.dynamics, matrix=spy(system.dynamics.matrix)),
        modes=tuple(spy(m) for m in system.modes))
    spied_sub = dataclasses.replace(
        sub, parent=spied, coords_in_parent=spy(sub.coords_in_parent),
        expectation=dataclasses.replace(sub.expectation,
                                        matrix=spy(sub.expectation.matrix)))
    expected = [v.cesaro_sequence(system, sub, a) for _, a in elements]

    def refuse(*args, **kwargs):
        raise AssertionError("cesaro_sequence took a decomposition")
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(_ProductSpy, "products", [])
    for (_, a), want in zip(elements, expected):
        assert np.array_equal(v.cesaro_sequence(spied, spied_sub, a), want)
    assert _ProductSpy.products
    assert [s for s in _ProductSpy.products if len(s) == 2 and s[0] >= d and s[1] > 1] \
        == []


def test_early_exit_allocates_only_the_steps_run(tmp_path):
    """A horizon of 10**9 steps would take 8 GB of averages up front, but the
    4-cycle's sequences stop after a few steps, so the analysis fits in 1 GiB
    and stops where the default horizon does."""
    shipped = next(p for p in shipped_system_paths() if p.stem == "classical_4cycle")
    path = tmp_path / "long_horizon.json"
    path.write_text(json.dumps({**json.loads(shipped.read_text()),
                                "tolerances": {"cesaro_n_max": 10 ** 9}}))
    child = textwrap.dedent(f"""
        import resource, sys
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = {ADDRESS_SPACE_CAP}
        if hard != resource.RLIM_INFINITY:
            cap = min(cap, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        from vnspec import cli
        sys.exit(cli.main(["analyze", {str(path)!r}, "--format", "json"]))
    """)
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    code, out, _ = run_cli(["analyze", str(shipped), "--format", "json"])
    assert code == 0
    counts = [[c["count"] for c in json.loads(text)["spectrum"]["cesaro"]]
              for text in (proc.stdout, out)]
    assert counts[0] == counts[1] and 0 < max(counts[0]) < 256


# --- spatial dynamics: conjugation unitaries against the coordinate matrices
# --- the classical, skew-product and tensor constructors once wrote down

def _t_power(images, g, k):
    """T^k g, with k reduced modulo the length of the orbit of g."""
    orbit = [g]
    while images[orbit[-1]] != g:
        orbit.append(images[orbit[-1]])
    return orbit[k % len(orbit)]


def written_out_dynamics_matrix(kind, p, tol=DEFAULT_TOL):
    """The coordinate matrix the constructors once built and checked with
    validate_automorphism; None for the kinds always built from a unitary."""
    if kind == "classical":
        n = len(p["permutation"])
        mat = np.zeros((n, n), dtype=np.complex128)
        mat[np.argsort(p["permutation"]), np.arange(n)] = 1.0
        return mat
    if kind == "skew_product":
        images, n_x = p["group_automorphism"], len(p["weights"])
        n_g = len(images)
        inv_s = np.argsort(p["permutation"])
        mat = np.zeros((n_x * n_g, n_x * n_g), dtype=np.complex128)
        for x in range(n_x):
            xs = int(inv_s[x])
            for g in range(n_g):
                g2 = _t_power(images, g, -int(p["cocycle"][xs]))
                mat[xs * n_g + g2, x * n_g + g] = 1.0
        return mat
    if kind == "tensor":
        b, c = (written_out_dynamics_matrix("classical", f["parameters"])
                if f["kind"] == "classical"
                else descriptions._build_factor(f, tol).dynamics.matrix
                for f in (p["b_factor"], p["c_factor"]))
        return np.kron(b, c)
    return None


@pytest.mark.parametrize("name", sorted(CESARO_SYSTEMS))
def test_dynamics_equal_the_written_out_coordinate_matrices(name):
    desc = parse_system(CESARO_SYSTEMS[name])
    system = build_from_description(desc).system
    alg, dyn = system.algebra, system.dynamics
    validate_automorphism(alg, dyn, system.trace)
    assert stack_invariance_residual(alg, dyn.unitary, dyn.matrix) <= 1e-12
    oracle = written_out_dynamics_matrix(desc.kind, desc.parameters)
    assert (oracle is None) == (desc.kind not in ("classical", "skew_product", "tensor"))
    if oracle is not None:
        assert np.abs(dyn.matrix - oracle).max() <= 1e-12


MUTATED_DYNAMICS = {  # shipped description, parameter, value that breaks it
    "classical_not_bijective": ("classical_4cycle", "permutation", [1, 1, 3, 0]),
    "classical_breaks_weights": ("classical_4cycle", "weights", [0.1, 0.2, 0.3, 0.4]),
    "skew_not_bijective": ("skew_z4_inversion", "permutation", [1, 1, 0]),
    "skew_breaks_weights": ("skew_z4_inversion", "weights", [0.2, 0.3, 0.5]),
    "skew_short_cocycle": ("skew_z4_inversion", "cocycle", [0, 1]),
}


@pytest.mark.parametrize("case", sorted(MUTATED_DYNAMICS))
def test_mutated_dynamics_end_in_exit_2(case, tmp_path):
    name, key, value = MUTATED_DYNAMICS[case]
    doc = json.loads(CESARO_SYSTEMS[name])
    doc["parameters"][key] = value
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["analyze", str(path), "--quiet"])
    assert code == 2, err
    assert "Traceback" not in err


# --- one multiplication table per algebra against per-stage coordinate passes

def test_closure_check_rejects_a_swapped_basis_element():
    """E_{n-1, 0} joins the last atom to the first: HS-orthogonal to the
    rest of the skew basis, but its adjoint and products leave the span."""
    system = build_from_description(
        parse_system(CESARO_SYSTEMS["skew_z4_inversion"])).system
    alg = system.algebra
    n = alg.ambient_dim
    assert dense_closure_residual(alg) <= 1e-15
    basis = alg.basis.copy()
    basis[1] = np.zeros((n, n))
    basis[1, n - 1, 0] = 1.0
    rows = basis.reshape(len(basis), -1)
    assert np.abs(rows @ rows.conj().T - np.eye(len(basis))).max() == 0.0
    bad = v.MatrixStarAlgebra(n, basis)
    assert dense_closure_residual(bad) >= 0.5
    with pytest.raises(NumericalBreakdown, match=r"does not span a \*-algebra"):
        v.system(bad, system.trace, v.identity_automorphism(bad))


def test_multiplication_table_is_associative(analyses, skew_d24):
    """(b_i b_j) b_k = b_i (b_j b_k) read from T[i, j] = coords(b_i b_j):
    sum_c T[i, j, c] T[c, k, :] = sum_c T[j, k, c] T[i, c, :] on seeded
    triples of basis indices."""
    rng = np.random.default_rng(41)
    for name, an in {**analyses, SKEW_D24["name"]: skew_d24}.items():
        t = an.built.system.table
        i, j, k = rng.integers(len(t), size=(3, 256))
        left = np.einsum("mc,cmx->mx", t[i, j], t[:, k])
        right = np.einsum("mc,mcx->mx", t[j, k], t[i])
        assert np.abs(left - right).max() <= 1e-12 * max(1.0, np.abs(t).max()), name


# --- product systems: the factors' tables against the dense table of A -----

PRODUCT_SYSTEMS = ("finite_extension_m2", "tensor_diag2_m2", "skew_z4_inversion")


def test_inherited_table_equals_the_dense_table(analyses, skew_d24):
    """T and S read off the factors, and the Gram matrix validate_trace
    formed on A, against the dense multiplication_table, gram_matrix and
    kron(G_B, G_C)."""
    for name in PRODUCT_SYSTEMS + (SKEW_D24["name"],):
        built = skew_d24.built if name == SKEW_D24["name"] else analyses[name].built
        sys_a, (b, c) = built.system, built.factors
        table, star = algebra.multiplication_table(sys_a.algebra)
        closure = dense_closure_residual(sys_a.algebra)
        assert closure <= 1e-13, name
        assert np.abs(table - sys_a.table).max() <= 1e-13, name
        assert np.abs(star - sys_a.star).max() <= 1e-13, name
        gram = algebra.gram_matrix(sys_a.algebra, sys_a.trace)
        assert np.abs(gram - sys_a.gram).max() <= 1e-13, name
        assert np.abs(gram - np.kron(b.gram, c.gram)).max() <= 1e-13, name


def test_product_system_tables_only_its_factors(monkeypatch):
    seen, dense = [], algebra.multiplication_table

    def spy(alg):
        seen.append(alg.dim)
        return dense(alg)
    monkeypatch.setattr(algebra, "multiplication_table", spy)
    built = build_from_description(parse_system(SKEW_D24))
    assert built.system.algebra.dim == 24
    assert sorted(seen) == [4, 6]


def test_product_system_reads_the_kronecker_gram(analyses, monkeypatch):
    """A product system's Gram is kron(G_B, G_C), equal to gram_matrix on
    the tensor, skew and finite-extension families, with gram_matrix formed
    for the factors only; a density other than rho_B (x) rho_C is read
    from the basis matrices instead."""
    seen, dense = [], algebra.gram_matrix

    def spy(alg, trace):
        seen.append(alg.dim)
        return dense(alg, trace)
    monkeypatch.setattr(algebra, "gram_matrix", spy)
    built = build_from_description(parse_system(SKEW_D24))
    assert sorted(seen) == [4, 6]
    for name, b in [*((n, analyses[n].built) for n in PRODUCT_SYSTEMS),
                    (SKEW_D24["name"], built)]:
        sys_a, (fb, fc) = b.system, b.factors
        assert np.abs(sys_a.gram - np.kron(fb.gram, fc.gram)).max() == 0.0, name
        assert np.abs(sys_a.gram - dense(sys_a.algebra, sys_a.trace)).max() <= 1e-13, name
    sys_a, factors = analyses["tensor_diag2_m2"].built.system, \
        analyses["tensor_diag2_m2"].built.factors
    # the same functional on A from a density that differs off A
    alg = sys_a.algebra
    x = linalg.random_complex(np.random.default_rng(43), (alg.ambient_dim,) * 2)
    x = x + x.conj().T
    off = x - alg.from_coords(alg.coords(x))
    moved = v.trace_functional(sys_a.trace.density + 1e-3 * off / np.abs(off).max())
    seen.clear()
    other = v.system(alg, moved, sys_a.dynamics, factors=factors)
    assert seen == [alg.dim]
    assert np.abs(other.gram - dense(alg, moved)).max() == 0.0
    assert np.abs(other.gram - sys_a.gram).max() <= 1e-13


@pytest.mark.parametrize("field", ["table", "star"])
def test_perturbed_factor_table_fails_the_generic_pair(analyses, field):
    """A 1e-6 error in one structure constant of a factor leaves the
    inherited table wrong on A; the generic pair sees it at 4e-7 or more."""
    b, c = analyses["tensor_diag2_m2"].built.factors
    bad = getattr(c, field).copy()
    bad.flat[1] += 1e-6
    with pytest.raises(NumericalBreakdown, match=r"does not span a \*-algebra"):
        v.build_tensor_system(b, dataclasses.replace(c, **{field: bad}))


def test_factors_of_the_wrong_dimension_are_refused(analyses):
    sys_a = analyses["tensor_diag2_m2"].built.system
    b, _ = analyses["tensor_diag2_m2"].built.factors
    with pytest.raises(v.errors.DimensionMismatch, match="product algebra"):
        v.system(sys_a.algebra, sys_a.trace, sys_a.dynamics, factors=(b, b))


def test_fiber_formula_applies_to_every_system(analyses, skew_d24):
    """The blockwise Tr(Delta P) over the central blocks of F against the
    lifted trace from <A, e> coordinates, commutative F or not."""
    for name, an in {**analyses, SKEW_D24["name"]: skew_d24}.items():
        check = {c.name: c for c in an.checks}["fiber_formula"]
        assert check.applicable and check.passed, name
        assert len(an.spectrum.fibers) == len(an.spectrum.modules), name
        assert (check.note == "no modules") == (not an.spectrum.modules), name


@pytest.mark.parametrize("name", sorted(CESARO_SYSTEMS))
def test_table_left_map_equals_coordinate_pass(name):
    built, elements = _admissible(name)
    alg = built.system.algebra
    rng = np.random.default_rng(23)
    elements += [(f"r{i}", random_element(alg, rng)) for i in range(3)]
    for label, a in elements:
        got = spectrum._adjoint_left_map(built.system, alg.coords(a))
        oracle = alg.coords_stack(a.conj().T @ alg.basis).T
        assert np.abs(got - oracle).max() <= 1e-12, (name, label)


def test_kronecker_terms_equal_coordinate_passes(analyses, skew_d24, monkeypatch):
    """The Gram of the generating tensors from the GNS action, as factored
    block by block, against the coordinate passes restricted to the
    generators."""
    seen, factor = [], joining._factor_blocks

    def spy(gram, blocks, tol=DEFAULT_TOL):
        seen.append(gram)
        return factor(gram, blocks, tol)
    monkeypatch.setattr(joining, "_factor_blocks", spy)
    for name, an in {**analyses, SKEW_D24["name"]: skew_d24}.items():
        seen.clear()
        jd = v.relative_joining(an.basic)
        gram, = seen
        p_old, q_old = coordinate_kronecker_terms(an.gns, an.basic.e)
        d = len(p_old)
        dense = np.einsum("ikh,jlh->ijkl", p_old.conj(), q_old,
                          optimize=True).reshape(d * d, d * d)
        old = _generating_gram(an.basic, dense) / np.outer(jd.norms, jd.norms)
        assert np.abs(gram - old).max() <= 1e-12, name


# --- the build's linear checks: one generic element against the dense rebuilds

def _linear_check_systems(analyses, skew_d24):
    """The shipped systems, the d = 24 skew product and the skewed tensor at
    w = 1e-9, as built."""
    from test_pipeline_properties import _skewed_fiber_tensor
    return {**{name: an.built for name, an in analyses.items()},
            SKEW_D24["name"]: skew_d24.built, "skewed_tensor": _skewed_fiber_tensor(1e-9)}


def _summands(desc):
    """(B_i, v, v') of each summand of a finite extension's description, for
    the condition that v'* v lies in the relative commutant of B_i."""
    p = desc.parameters
    out = [(descriptions._build_factor(p["b1_factor"], DEFAULT_TOL),
            *(descriptions.matrix_to_array(p[k]) for k in ("v1", "v4")))]
    if p["b2_factor"] is not None:
        out.append((descriptions._build_factor(p["b2_factor"], DEFAULT_TOL),
                    *(descriptions.matrix_to_array(p[k]) for k in ("v2", "v3"))))
    return out


def test_linear_checks_pass_by_both_routes(analyses, skew_d24, shipped_descriptions):
    """The closure, the invariance of A under the dynamics, F in A and
    alpha(F) in F hold at the generic element and on the dense rebuilds,
    with the same coordinate matrix and coordinates of F."""
    for name, built in _linear_check_systems(analyses, skew_d24).items():
        sys_a, sub = built.system, built.sub
        alg, dyn = sys_a.algebra, sys_a.dynamics
        assert algebra._generic_closure_residual(alg, sys_a.table, sys_a.star) \
            <= 1e-12, name
        assert dense_closure_check(alg) <= 1e-12, name
        auto = v.automorphism_from_unitary(alg, dyn.unitary, sys_a.trace)
        dense = dense_automorphism_check(alg, dyn.unitary, sys_a.trace)
        assert np.abs(auto.matrix - dense).max() <= 1e-13, name
        again = v.subsystem(sys_a, sub.algebra)
        coords = dense_subsystem_check(sys_a, sub.algebra)
        assert np.abs(again.coords_in_parent - coords).max() <= 1e-13, name
    for b, first, second in _summands(shipped_descriptions["finite_extension_m2"]):
        x = second.conj().T @ first
        constructors._check_relative_commutant(b.algebra, x, "v'* v", DEFAULT_TOL)
        assert dense_relative_commutant_check(b.algebra, x, "v'* v") <= 1e-12


def test_build_rebuilds_no_stack_of_the_basis(monkeypatch):
    """Building the d = 24 skew product reads coordinates back into matrices
    for at most the two generic elements of the closure check: no check
    rebuilds a whole stack of basis images."""
    rows, rebuild = [], v.MatrixStarAlgebra.from_coords_stack

    def spy(alg, c):
        rows.append(len(c))
        return rebuild(alg, c)
    monkeypatch.setattr(v.MatrixStarAlgebra, "from_coords_stack", spy)
    assert build_from_description(parse_system(SKEW_D24)).system.algebra.dim == 24
    assert rows and max(rows) <= 2, rows


LINEAR_FAULT = 1e-6  # size of the fault each route must refuse


def _refusal(call):
    """The class and message of the error ``call`` raises, with the residual's
    value, which differs between the routes, left out."""
    with pytest.raises(v.errors.VnspecError) as info:
        call()
    return type(info.value), re.sub(r" \(residual [^)]*\)$", "", str(info.value))


def _unit_direction(mat):
    return mat / np.linalg.norm(mat)


def _off_span(alg, rng):
    """A unit matrix Hilbert-Schmidt orthogonal to the algebra."""
    r = linalg.random_complex(rng, (alg.ambient_dim,) * 2)
    return _unit_direction(r - alg.from_coords(alg.coords(r)))


def _with_unit_first(sub_alg):
    """F's basis with 1 / sqrt(N) first and the rest orthogonal to it."""
    return v.generate_algebra(list(sub_alg.basis), sub_alg.ambient_dim)


def _faulty_closure(built, rng):
    sys_a = built.system
    alg = sys_a.algebra
    basis = alg.basis.copy()
    basis[1] += LINEAR_FAULT * _off_span(alg, rng)
    bad = v.MatrixStarAlgebra(alg.ambient_dim, basis)
    return (lambda: v.system(bad, sys_a.trace, v.identity_automorphism(bad),
                             factors=built.factors),
            lambda: dense_closure_check(bad))


def _turned(u, h):
    """u exp(i f (h + h*)) for the fault size f: unitary, and f |h| from u."""
    vals, vecs = np.linalg.eigh(h + h.conj().T)
    return u @ (vecs * np.exp(1j * LINEAR_FAULT * vals)) @ vecs.conj().T


def _faulty_dynamics(built, rng):
    sys_a = built.system
    alg, u = sys_a.algebra, sys_a.dynamics.unitary
    bad = _turned(u, linalg.random_complex(rng, (alg.ambient_dim,) * 2))
    return (lambda: v.automorphism_from_unitary(alg, bad, sys_a.trace),
            lambda: dense_automorphism_check(alg, bad, sys_a.trace))


def _faulty_sub(built, direction):
    sys_a = built.system
    sub = _with_unit_first(built.sub.algebra)
    basis = sub.basis.copy()
    basis[1] += LINEAR_FAULT * direction
    bad = v.MatrixStarAlgebra(sub.ambient_dim, basis)
    return (lambda: v.subsystem(sys_a, bad), lambda: dense_subsystem_check(sys_a, bad))


def _faulty_inclusion(built, rng):
    """F with one basis element moved off A."""
    return _faulty_sub(built, _off_span(built.system.algebra, rng))


def _faulty_invariance(built, rng):
    """F with one basis element moved within A, off F."""
    alg, sub = built.system.algebra, built.sub.algebra
    r = alg.from_coords(linalg.random_complex(rng, alg.dim))
    return _faulty_sub(built, _unit_direction(r - sub.from_coords(sub.coords(r))))


LINEAR_FAULTS = {  # the fault, and what both routes raise
    "closure": (_faulty_closure, NumericalBreakdown,
                r"^the basis does not span a \*-algebra: a product or adjoint leaves "
                r"its span$"),
    "dynamics": (_faulty_dynamics, NotAutomorphism,
                 r"^conjugation by the unitary does not map the algebra onto itself$"),
    "inclusion": (_faulty_inclusion, v.errors.SubsystemInvalid,
                  r"^subalgebra is not contained in the parent algebra$"),
    "invariance": (_faulty_invariance, v.errors.SubsystemInvalid,
                   r"^dynamics does not preserve the subalgebra$"),
}


@pytest.mark.parametrize("fault", sorted(LINEAR_FAULTS))
@pytest.mark.parametrize("name", ["classical_4cycle", "finite_extension_m2",
                                  SKEW_D24["name"]])
def test_linear_fault_is_refused_by_both_routes(analyses, skew_d24, fault, name):
    """A fault of 1e-6 in the basis, the unitary or F is refused by the
    generic element and by the dense rebuild, with one class and message."""
    built = skew_d24.built if name == SKEW_D24["name"] else analyses[name].built
    make, cls, message = LINEAR_FAULTS[fault]
    generic, dense = make(built, np.random.default_rng(47))
    refusals = [_refusal(generic), _refusal(dense)]
    assert refusals[0] == refusals[1], refusals
    assert refusals[0][0] is cls and re.match(message, refusals[0][1]), refusals


def test_relative_commutant_fault_is_refused_by_both_routes(shipped_descriptions):
    """v1 turned by exp(i 1e-6 h) for a generic Hermitian h in B_1 = M_2
    stays a unitary of B_1, and v4* v1 leaves the relative commutant."""
    p = shipped_descriptions["finite_extension_m2"].parameters
    (b1, v1, v4), (b2, v2, v3) = _summands(shipped_descriptions["finite_extension_m2"])
    bad = _turned(v1, b1.algebra.from_coords(
        linalg.random_complex(np.random.default_rng(53), b1.algebra.dim)))
    spec = v.FiniteExtensionSpec(b1=b1, b2=b2, s=p["s"], v1=bad, v4=v4, v2=v2, v3=v3)
    refusals = [_refusal(lambda: v.build_finite_extension(spec)),
                _refusal(lambda: dense_relative_commutant_check(
                    b1.algebra, v4.conj().T @ bad, "v4* v1"))]
    assert refusals[0] == refusals[1] == (
        v.errors.ConstraintViolated, "v4* v1 is not in the relative commutant"), refusals


# --- the equivalence map and the relation that defines it ---------------------

# a classical system whose three-point atom of F needs a third generator b_s,
# so the d k = 12 generating tensors span a joining of rank 10
THREE_POINT_ATOM = {
    "format_version": 1, "name": "three_point_atom", "kind": "classical",
    "parameters": {"weights": [0.2, 0.2, 0.2, 0.4], "permutation": [1, 2, 0, 3],
                   "sub_partition": [[0, 1, 2], [3]]}}


def test_equivalence_checks_its_defining_relation():
    """A null vector of the generating factor added to every row of the bar
    columns leaves R = C (gamma^H)^+, so its unitarity and intertwining,
    unchanged, but breaks R gamma = C."""
    an = analyze_description(parse_system(THREE_POINT_ATOM))
    jd, bc = an.joining, an.basic
    assert (jd.rank, jd.gamma.shape[1]) == (10, 12)
    _assert_relation_on_every_simple_tensor(THREE_POINT_ATOM["name"], an)
    # the span products' coordinates are those of the candidates x_i e b_s
    cand = span_candidates(bc).reshape(-1, an.gns.dim, an.gns.dim)
    assert np.abs(bc.span_coords - bc.algebra.coords(cand)).max() <= 1e-14
    cols = bc.bar_to_vector @ bc.span_coords.T
    null = np.linalg.svd(jd.gamma)[2][jd.rank].conj()
    assert np.abs(jd.gamma @ null).max() <= 1e-12
    bent = cols + 0.3 * (null * jd.norms).conj()
    read = joining._read_back(jd.gamma, jd.norms)
    eye = np.eye(jd.rank)
    for c in (cols, bent):
        r = c @ read.conj().T
        assert np.abs(r.conj().T @ r - eye).max() <= 1e-12
        assert np.abs(r @ jd.w_matrix @ r.conj().T - bc.u_bar).max() <= 1e-12
    assert np.abs(r @ jd.gamma - cols / jd.norms).max() <= 1e-12
    assert np.abs(r @ jd.gamma - bent / jd.norms).max() >= 0.05
    bent_bc = dataclasses.replace(
        bc, span_coords=np.linalg.solve(bc.bar_to_vector, bent).T)
    with pytest.raises(IsometryViolation, match="does not send"):
        v.joining_equivalence(dataclasses.replace(jd, basic=bent_bc))


def test_equivalence_checks_the_balance(analyses):
    """An inclusion generator outside F breaks a g (x) j(b) = a (x) j(g b)."""
    an = analyses["finite_extension_m2"]
    bc, alg = an.basic, an.built.system.algebra
    assert joining._balance(bc) <= 1e-12
    outside = linalg.random_complex(np.random.default_rng(3), (1, alg.dim))
    assert an.built.sub.algebra.membership_residual(alg.from_coords(outside[0])) >= 0.1
    broken = dataclasses.replace(bc, g_coords=outside)
    assert joining._balance(broken) >= 1e-3
    with pytest.raises(NumericalBreakdown, match=r"a g \(x\) j\(b\) and a \(x\) j\(g b\)"):
        v.joining_equivalence(dataclasses.replace(an.joining, basic=broken))


# --- inclusion in j(F)' by generators of F against every basis element of F -

def _right_action_residual(an):
    """max |[x, j(f)]| / |j(f)| over the span and every basis element f of F,
    the inclusion check before it used generators of F."""
    gns, basis = an.gns, dense_span(an.basic).basis
    return max(float(np.abs(basis @ j - j @ basis).max() / np.linalg.norm(j, 2))
               for j in (gns.j_op(gns.left(f)) for f in an.built.sub.algebra.basis))


def test_generator_inclusion_matches_the_basis_check(analyses):
    for name, an in analyses.items():
        assert an.basic.commutant_residual <= 1e-14, name
        assert _right_action_residual(an) <= 1e-14, name


@pytest.mark.parametrize("name", ["classical_4cycle", "finite_extension_m2"])
def test_row_outside_the_commutant_fails_inclusion(analyses, name, monkeypatch):
    """The block coordinates keep their dimension, but one column of a frame
    leaves j(q_k) H, so the span's elements are no longer rebuilt from their
    blocks."""
    an = analyses[name]
    n = an.gns.dim
    stray = linalg.random_complex(np.random.default_rng(5), n)
    block_algebra = basic._block_algebra

    def swap_last(*args):
        alg = block_algebra(*args)
        frames = [f.copy() for f in alg.frames]
        v_last = frames[-1][0]
        col = stray - v_last[:, :-1] @ (v_last[:, :-1].conj().T @ stray)
        frames[-1][0][:, -1] = col / np.linalg.norm(col)
        return v.BlockAlgebra(tuple(frames))
    monkeypatch.setattr(basic, "_block_algebra", swap_last)
    with pytest.raises(CommutantMismatch, match="commutator residual") as err:
        v.build_basic_construction(an.gns, an.built.sub)
    commutator, rebuilt = _inclusion_residuals(err.value)
    assert commutator <= DEFAULT_TOL.eps_assert < rebuilt


# --- one path per object: E_F solved once by the subsystem, the test-only
# --- API and the recomputing fallbacks out of the package

def conditional_expectation_matrix(parent, sub):
    """Orthogonal projection of A onto F for mu(a* b), as the package once
    solved it in every stage that needed E_F."""
    fc = sub.coords_in_parent.T  # (d, m)
    small = fc.conj().T @ parent.gram @ fc
    return fc @ np.linalg.solve(small, fc.conj().T @ parent.gram)


def test_subsystem_expectation_equals_the_solved_projection(analyses, skew_d24):
    for name, an in {**analyses, SKEW_D24["name"]: skew_d24}.items():
        system, sub = an.built.system, an.built.sub
        assert sub.expectation.algebra is system.algebra, name
        oracle = conditional_expectation_matrix(system, sub)
        assert np.abs(sub.expectation.matrix - oracle).max() <= 1e-12, name


REMOVED_NAMES = ("checked_trace", "is_commutative", "conditional_expectation",
                 "commutant", "product_closure_residual", "validate_algebra",
                 "random_element", "classical_fiber_analysis", "NotCommutative",
                 "joint_commutant", "cyclic_subspace_projection", "inv_sqrt_psd",
                 "_span_candidates", "center_coords", "central_projection_coords",
                 "center", "block_decomposition", "_full_matrix_algebra", "CENTER_SEED",
                 "INCLUSION_SEED", "_inclusion_generators", "_minimal_projections",
                 "_partial_isometry")


def test_removed_names_are_absent():
    modules = [m for name, m in sys.modules.items()
               if name == "vnspec" or name.startswith("vnspec.")]
    assert {"vnspec.algebra", "vnspec.basic", "vnspec.joining", "vnspec.spectrum",
            "vnspec.pipeline"} <= {m.__name__ for m in modules}
    assert [(m.__name__, n) for m in modules for n in REMOVED_NAMES
            if hasattr(m, n)] == []
    assert not hasattr(v.GnsSpace, "vector_of")
    assert not hasattr(v.BasicConstruction, "gamma")
    assert not hasattr(v.BlockAlgebra, "adjoint")
    assert not hasattr(constructors, "skew_orbit_modules")  # spectrum owns it


def test_subsystem_of_another_system_is_refused(m2_grading, m2_over_diagonal):
    system, sub = m2_grading.system, m2_over_diagonal.sub
    gns = v.build_gns(system)
    with pytest.raises(v.errors.SubsystemInvalid, match="does not belong"):
        v.cesaro_sequence(system, sub, E12)
    with pytest.raises(v.errors.SubsystemInvalid, match="does not belong"):
        admissible_elements(system, sub)
    with pytest.raises(v.errors.SubsystemInvalid, match="does not belong"):
        v.build_basic_construction(gns, sub)


@pytest.mark.parametrize("name, builds", [("skew_z4_inversion", 3),
                                          ("tensor_diag2_m2", 3),
                                          ("finite_extension_m2", 5)])
def test_factor_systems_are_built_once(shipped_descriptions, monkeypatch, name, builds):
    """One system() per factor and one for A; the finite extension also builds
    B = B1 (+) B2 and M_2.  The analysis reads the factors it was given."""
    seen, build = [], constructors.system

    def spy(*args, **kwargs):
        seen.append(args[0].dim)
        return build(*args, **kwargs)
    monkeypatch.setattr(constructors, "system", spy)
    analyze_description(shipped_descriptions[name])
    assert len(seen) == builds, seen


def test_product_systems_keep_the_factor_systems(analyses):
    b = v.build_classical_system([0.5, 0.5], [1, 0])
    c = analyses["explicit_m2_grading"].built.system
    built = v.build_tensor_system(b, c)
    assert built.factors[0] is b and built.factors[1] is c
    skew = analyses["skew_z4_inversion"].built
    table = np.asarray(SKEW_D24["parameters"]["group_table"])  # Z_4, as shipped
    assert np.array_equal(skew.factors[1].algebra.basis,
                          constructors.left_regular_matrices(table) / 2)
    # the dual orbits {1, 3} and {2} of the inversion, as indices x n_G + g
    assert skew.orbits == ((1, 3, 5, 7, 9, 11), (2, 6, 10))


def test_stages_hold_their_owner_not_its_parts():
    assert not {"tensor_factors", "extras"} \
        & {f.name for f in dataclasses.fields(v.ConstructedSystem)}
    assert "extras" not in {f.name for f in dataclasses.fields(SystemAnalysis)}
    assert not {"gns", "sub", "omega_vec"} \
        & {f.name for f in dataclasses.fields(v.JoiningData)}
    assert not hasattr(joining, "_bar_generators")
