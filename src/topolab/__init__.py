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
    DefSet,
    Ground,
    atoms_of,
    ds_combine,
    parse_set_expr,
)
from .fintop import (
    FinSpace,
    PropertyReport,
    QuotientMap,
    closure,
    enumerate_topologies,
    generate_topology,
    hasse_dot,
    iso_check,
    monad,
    property_report,
    t0_reflection,
    t2_reflection,
)
from .star import (
    CoverageReport,
    DefMap,
    RetractionMap,
    SpacePresentation,
    StarMap,
    StarModel,
    adherence,
    build_star,
    density_violations,
    dm_compose,
    ds_preimage,
    fragment_continuous,
    is_fragment_open,
    model_monad,
    retraction,
    robinson_coverage,
    sample_space,
    sandwich_violations,
    star_identity_violations,
    star_map,
    star_of,
)
from .dcomp import (
    CrosscheckReport,
    DyadEmbedding,
    DyadFamily,
    check_family_continuous,
    dcomp_crosscheck,
    dcomp_embed,
    dyad_family_of,
)

__version__ = "0.1.0"
