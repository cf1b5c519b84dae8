#!/usr/bin/env python3
"""Walk through the skew-product example and print its module table.

Varies the cocycle to show how the generic joint-commutant blocks can merge
orbit modules (trivial twist monodromy) while the orbit certificate keeps the
per-orbit traces.
"""

import vnspec as v
from vnspec.spectrum import skew_orbit_modules

Z4 = tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4))
INVERSION = tuple((-g) % 4 for g in range(4))


def run(cocycle):
    spec = v.SkewProductSpec(weights=(1 / 3, 1 / 3, 1 / 3), permutation=(1, 2, 0),
                             group_table=Z4, group_automorphism=INVERSION,
                             cocycle=cocycle)
    skew = v.build_skew_product(spec)
    gns = v.build_gns(skew.system)
    bc = v.build_basic_construction(gns, skew.sub)
    orbit = skew_orbit_modules(bc, skew.orbits)
    blocks = v.find_minimal_modules(bc)
    print(f"cocycle {cocycle}: dim H = {gns.dim}, "
          f"dim <A,e> = {bc.algebra.dim}, "
          f"lifted trace of complement = "
          f"{bc.lifted_value(bc.complement_coords).real:.6g}")
    print("  orbit modules: ",
          [(c.dim, round(c.lifted_trace, 9)) for c in orbit])
    print("  commutant blocks:",
          [(c.dim, round(c.lifted_trace, 9)) for c in blocks])
    for c in orbit:
        rep = v.fiber_analysis(bc, c)
        print(f"    fibers {rep.fiber_dims} -> weighted {rep.weighted_sum:.6g},"
              f" plain {rep.plain_sum:.6g}, measured {rep.measured:.6g}"
              f" ({rep.matching_formula})")


if __name__ == "__main__":
    for k in ((0, 1, 1), (0, 0, 1), (0, 0, 0)):
        run(k)
        print()
