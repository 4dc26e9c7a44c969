"""Invariant structures on the cotangent extension of the Heisenberg algebra.

The package builds the 2-step nilpotent Lie algebra T*h(2n+1) = h(2n+1)
x_coad R^{2n+1} for any n >= 1 and verifies, constructively, the
classification of its left-invariant structures:

- automorphism group (block parametrization, exact assembly checks),
- positive-definite metrics up to automorphism (Williamson reduction to
  a diagonal template plus the residual center-pairing invariant),
- the ad-invariant metric class (unique up to automorphism and scale,
  neutral signature, flat, with nabla = ad/2),
- complex structures (the reference anti-diagonal structure, its
  integrable deformation family, normalization back to the reference
  structure, and the abelian/Hermitian side conditions),
- closed invariant 2-forms and the Ricci-flat pseudo-Kahler metrics
  they induce, with an exact curvature engine for certificates.

Most constructions run in either float or exact rational arithmetic,
following the type of their operands: object arrays of fractions and
rational scalars are exact throughout, and one float operand makes the
result float.  ``heiscot._exact`` makes that choice in one place, with
its two fields (``field_of`` from the operands, ``field`` from the flag
of a constructor that builds from nothing) and one zero test
(``negligible``: exact defects must be 0, float ones within a tolerance
scaled by the size of their operands).
"""

from .lie_core import (
    LieAlgebra,
    build_heisenberg,
    build_thn,
    cotangent_algebra,
    cotangent_reorder_permutation,
    derivation_algebra,
    relabel,
    standard_symplectic,
)
from .automorphism import (
    Automorphism,
    assemble,
    aut_parameter_dimension,
    bracket_defect,
    is_automorphism,
    random_automorphism,
    symplectic_rotation,
)
from .metric_moduli import (
    CanonicalMetric,
    EquivalenceResult,
    NonPositiveDefinite,
    ReductionResult,
    ToleranceFailure,
    act,
    are_equivalent,
    free_parameter_count,
    random_positive_definite,
    reduce_to_canonical,
    reduce_with_diagnostics,
    williamson,
)
from .adinvariant import (
    ad_invariant_solution_space,
    ad_invariance_defect,
    certify_flat,
    is_ad_invariant,
    normalize_ad_invariant,
    pairing_metric,
    random_ad_invariant,
    solution_space_dimension,
)
from .complex_structures import (
    FamilyParams,
    IntegrableFamily,
    NormalizedComplexStructure,
    NotInFamily,
    NotIntegrable,
    hermitian_defect,
    hermitian_metric_space,
    integrability_report,
    is_abelian_complex_structure,
    is_hermitian,
    is_integrable,
    nijenhuis,
    normalize_complex_structure,
    sign_reversing_automorphism,
    signed_plane_member,
    solve_integrable_family,
    standard_complex_structure,
)
from .forms_kahler import (
    DegenerateOmega,
    OmegaParams,
    build_omega,
    certify_pseudo_kahler,
    closed_invariant_space,
    closure_defect,
    d_one_form,
    d_two_form,
    extract_omega_params,
    is_closed,
    matches_omega_template,
    omega_parameter_count,
    pseudo_kahler_metric,
    random_omega_params,
)
from .curvature import (
    compatibility_defect,
    first_bianchi_defect,
    is_flat,
    levi_civita,
    ricci_from_riemann,
    ricci_nilpotent_formula,
    ricci_nilpotent_summands,
    riemann,
    scalar_curvature,
    second_bianchi_defect,
    signature,
    torsion_defect,
)

__version__ = "0.1.0"
