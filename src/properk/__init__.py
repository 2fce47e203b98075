"""Equivariant K- and KO-theory of classifying spaces for proper actions.

Pipeline: build the quotient cell structure of a model (Bass-Serre path for
amalgams of finite cyclic groups; Davis or Bestvina complexes for Coxeter
groups), assemble the Bredon cochain complex with K^0 or KO^{-n} orbit
coefficients, compute its cohomology exactly, and read the abutment off the
Atiyah-Hirzebruch spectral sequence once positional collapse is established.
All arithmetic is exact.
"""

from .abelian import (
    AbGroup,
    ChainComplexError,
    IntMatrix,
    Mod2Matrix,
    SplitCochainComplex,
    cohomology,
    invariant_factors,
    smith_normal_form,
    tensor_mod2,
    uct_verify,
)
from .ahss import (
    AbutmentReport,
    ClosedForm,
    E2Page,
    ExtensionProblem,
    NoCollapseError,
    Verdict,
    assemble_abutment,
    build_e2,
    closed_form_amalgam,
    closed_form_path_family,
    closed_form_polygon_family,
    closed_form_right_angled,
    compare,
    detect_collapse,
)
from .bredon import (
    assemble_cochain,
    bredon_cochain,
    bredon_cohomology,
    bredon_rows,
)
from .coxeter import (
    CoxeterMatrix,
    SphericalPoset,
    UnsupportedStabilizerError,
    build_bestvina_orbit_complex,
    build_davis_orbit_complex,
    enumerate_spherical_subsets,
)
from .groups import (
    GroupClass,
    InclusionDescriptor,
    UnsupportedRestrictionError,
    cyclic,
    cyclic_in_cyclic,
    dihedral_odd,
    elem2,
    elem2_subset,
    reflection_in_dihedral,
    trivial,
    trivial_in,
)
from .orbit import (
    AmalgamSpec,
    OrbitComplex,
    build_amalgam_orbit_complex,
)
from .reprings import (
    k0_rank,
    real_restriction,
    real_type_counts,
    restriction_k0,
    restriction_ko,
)

__all__ = [name for name in dir() if not name.startswith("_")]
