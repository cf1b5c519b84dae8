#!/usr/bin/env python3
"""Build the two-summand finite extension and print its structural residuals.

Shows the displayed corner pattern of the dynamics on 1 (x) E12, the distance
from any product form, the resulting discrete-spectrum certificate, and each
module's multiplicities over the central blocks of the noncommutative base.
"""
import numpy as np

import vnspec as v
from vnspec.constructors import finite_extension_diagnostics

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = ((0, 1), (1, 0))


def main():
    b1 = v.explicit_system(2, [E12], np.eye(2) / 2, dynamics_unitary=X)
    b2 = v.build_group_vn_system(Z2, (0, 1)).system
    spec = v.FiniteExtensionSpec(b1=b1, b2=b2, s=1 / 3,
                                 v1=X, v4=X, v2=X, v3=np.eye(2))
    fe = v.build_finite_extension(spec)
    diag = finite_extension_diagnostics(fe)
    print("finite extension of M_2 (+) L(Z_2) by 2x2 matrices")
    print(f"  dim A = {fe.system.algebra.dim}, dim F = {fe.sub.algebra.dim}")
    for key in ("beta_two_expressions", "off_diagonal", "restriction",
                "display_pattern"):
        print(f"  {key:22s} residual {getattr(diag, key):.3e}")
    print(f"  product distance {diag.product_distance:.6g} "
          f"(non-product detected: {diag.nonproduct_detected})")
    gns = v.build_gns(fe.system)
    bc = v.build_basic_construction(gns, fe.sub)
    jd = v.relative_joining(bc)
    print(f"  dim <A,e> = {bc.algebra.dim}, "
          f"lifted trace of complement = "
          f"{bc.lifted_value(bc.complement_coords).real:.6g}")
    print(f"  weak mixing relative to the base: "
          f"{v.rwm_certificate(jd).holds}")
    reports = [(c, v.fiber_analysis(bc, c)) for c in v.find_minimal_modules(bc)]
    print(f"  central blocks of F: n_k = {tuple(n for _, n, _ in bc.blocks)}, "
          f"weights mu(p_k) / n_k = "
          f"{tuple(round(w, 6) for w in reports[0][1].atom_weights)}")
    for c, rep in reports:
        print(f"    module dim {c.dim}: multiplicities {rep.fiber_dims} -> "
              f"weighted {rep.weighted_sum:.6g}, lifted trace {rep.measured:.6g}")


if __name__ == "__main__":
    main()
