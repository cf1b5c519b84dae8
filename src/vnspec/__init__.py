"""Finite-dimensional W*-dynamical systems at desk scale.

Builds matrix realizations of tracial dynamical systems, their basic
construction with the canonical lifted trace, the relatively independent
joining with its unitary equivalence, and exact certificates for relative
weak mixing and relative discrete spectrum.
"""
from .algebra import (BlockAlgebra, ConditionalExpectation, DEFAULT_TOL,
                      MatrixStarAlgebra, MatrixUnits, StarAutomorphism, Subsystem,
                      ToleranceConfig, TraceFunctional, WStarSystem,
                      automorphism_from_unitary, bratteli_blocks, generate_algebra,
                      gram_matrix, matrix_units, subsystem, system, trace_functional,
                      validate_trace)
from .basic import (BasicConstruction, build_basic_construction,
                    default_partition, lifted_trace, lifted_trace_via_partition)
from .constructors import (ConstructedSystem, FiniteExtensionDiagnostics,
                           FiniteExtensionSpec, GroupSystem,
                           SkewProductSpec, build_classical_system,
                           build_explicit_system, build_finite_extension,
                           build_group_vn_system, build_skew_product,
                           build_tensor_system, classical_sub_partition,
                           group_sub_system, identity_automorphism,
                           tensor_partition_isometries, trivial_subalgebra)
from .gns import GnsSpace, build_gns, cyclic_subspace_frame
from .joining import (ErgodicityCheck, JoiningData, factor_gram, joining_equivalence,
                      relative_ergodicity_check, relative_joining)
from .spectrum import (CesaroSample, FiberReport, RdsCertificate, SpectrumReport,
                       SubmoduleCandidate, admissible_elements,
                       build_spectrum_report, cesaro_sequence, fiber_analysis,
                       find_minimal_modules, rds_verdict, rwm_certificate)
from . import errors

__version__ = "0.1.0"
