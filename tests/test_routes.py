"""The structure-aware routes against the iterate-until-stable ones they replace.

The basic construction is built as span(A e A), the joint commutant of the
dynamics and the right subalgebra action as the fixed points of the lifted
dynamics, and the commutant by intersecting null spaces one basis element at
a time.  The older routes survive here only, as oracles.
"""
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import vnspec as v
from vnspec import linalg


def _mutual_inclusion(a, b) -> float:
    return max(max((b.membership_residual(x) for x in a.basis), default=0.0),
               max((a.membership_residual(x) for x in b.basis), default=0.0))


def test_span_basis_equals_generated_algebra(analyses):
    for name, an in analyses.items():
        gns, bc = an.gns, an.basic
        generated = v.generate_algebra(list(gns.left_mats) + [bc.e], gns.dim)
        assert generated.dim == bc.algebra.dim, name
        assert _mutual_inclusion(generated, bc.algebra) < 1e-9, name


def test_fixed_points_equal_joint_commutant(analyses):
    for name, an in analyses.items():
        gns, sub = an.gns, an.built.sub
        fixed = v.joint_commutant(an.basic)
        joint = v.generate_algebra(
            [gns.u_matrix] + [gns.j_op(gns.left(f)) for f in sub.algebra.basis],
            gns.dim)
        oracle = v.commutant(joint)
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
    comm = v.commutant(alg)
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
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
        from vnspec.pipeline import analyze_description
        an = analyze_description(parse_system({SKEW_D24!r}))
        assert an.passed and an.basic.algebra.dim == 96
        print("ok")
    """)
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"
