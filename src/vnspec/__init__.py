"""Finite-dimensional W*-dynamical systems at desk scale.

Builds matrix realizations of tracial dynamical systems, their basic
construction with the canonical lifted trace, the relatively independent
joining with its unitary equivalence, and exact certificates for relative
weak mixing and relative discrete spectrum.
"""
from .algebra import (ConditionalExpectation, DEFAULT_TOL, MatrixStarAlgebra,
                      StarAutomorphism, Subsystem, ToleranceConfig,
                      TraceFunctional, WStarSystem, automorphism_from_matrix,
                      automorphism_from_unitary, block_decomposition, center,
                      commutant, conditional_expectation, generate_algebra,
                      gram_matrix, random_element, star_algebra, subsystem,
                      system, trace_functional, validate_algebra,
                      validate_trace)
from .basic import (BasicConstruction, build_basic_construction,
                    default_partition, lifted_trace_coefficients,
                    lifted_trace_via_partition, product_closure_residual)
from .constructors import (ConstructedSystem, FiniteExtensionSpec, GroupSystem,
                           SkewProductSpec, build_classical_system,
                           build_explicit_system, build_finite_extension,
                           build_group_vn_system, build_skew_product,
                           build_tensor_system, classical_sub_partition,
                           group_sub_system, identity_automorphism,
                           tensor_partition_isometries, trivial_subalgebra)
from .gns import (GnsSpace, build_gns, cyclic_subspace_projection,
                  gns_invariant_residuals, right_action)
from .joining import (CommutantSystem, ErgodicityCheck, JoiningData,
                      build_commutant_system, joining_equivalence,
                      relative_ergodicity_check, relative_joining)
from .spectrum import (CesaroSample, FiberReport, RdsCertificate, SpectrumReport,
                       SubmoduleCandidate, absolute_spectrum_check,
                       admissible_elements, build_spectrum_report,
                       cesaro_sequence, classical_fiber_analysis,
                       find_minimal_modules, joint_commutant, rds_verdict,
                       rwm_certificate, rwm_verdict_exact)
from . import errors

__version__ = "0.1.0"
