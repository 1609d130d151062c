"""Fragment models of nonstandard extensions over decidable set algebras.

The package builds finite Stone-space models of presented topologies,
checks the star-map identities and separation properties on them, and
computes the T0/T2 reflections, standard-part retractions, and dyad
compactifications at fragment scale.
"""
from .errors import (
    AtomCapExceeded,
    FamilyTooLarge,
    GroundMismatch,
    NoRetraction,
    NotInAlgebra,
    OutOfGround,
    ParseError,
    PeriodOverflow,
    PreimageNotInAlgebra,
    SampleImageNotSample,
    SampleNotInGround,
    SizeCapExceeded,
    TopolabError,
    UnknownName,
    UsageError,
)
from .setalg import (
    GENERATOR_CAP,
    OMEGA,
    PERIOD_CAP,
    AlgebraBasis,
    DefSet,
    Ground,
    SetRelation,
    atoms_of,
    ds_combine,
    ds_compare,
    ds_member,
    parse_set_expr,
)
from .fintop import (
    FinSpace,
    PropertyReport,
    closure,
    enumerate_topologies,
    generate_topology,
    hasse_dot,
    interior,
    iso_check,
    monad,
    property_report,
    subspace,
)
from .star import (
    CoverageReport,
    DefMap,
    SpacePresentation,
    StarMap,
    StarModel,
    algebra_sets,
    build_star,
    density_violations,
    dm_compose,
    ds_preimage,
    fragment_continuous,
    model_monad,
    robinson_coverage,
    sample_space,
    sandwich_violations,
    star_identity_violations,
    star_map,
    star_of,
)
from .dcomp import (
    DYAD,
    CrosscheckReport,
    DyadEmbedding,
    DyadFamily,
    check_family_continuous,
    dcomp_crosscheck,
    dcomp_embed,
    dyad_family_of,
)

__version__ = "0.1.0"

# reflect loads numpy, which most commands never run: its names resolve on
# first use (PEP 562)
_REFLECT_NAMES = {
    "QuotientMap", "RetractionMap", "SweepReport", "adherence", "retraction",
    "t0_reflection", "t2_reflection", "weak_reflection_sweep"}


def __getattr__(name):
    if name in _REFLECT_NAMES:
        from . import reflect
        return getattr(reflect, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
