"""Value semantics of every value type: read-only fields, equality by class
and fields, a hash that agrees with equality, and the `Name(field=...)`
repr the types printed when they were dataclasses."""
import pytest

from topolab._record import Record
from topolab.cli import PresentationFile, ReportItem, parse_presentation
from topolab.dcomp import (
    CrosscheckReport,
    DyadEmbedding,
    DyadFamily,
    dcomp_crosscheck,
    dcomp_embed,
)
from topolab.fintop import (
    PROPERTY_FLAGS,
    FinSpace,
    PropertyReport,
    QuotientMap,
    property_report,
    t0_reflection,
)
from topolab.reflect import SweepReport
from topolab.setalg import OMEGA, DefSet, Ground
from topolab.star import (
    CoverageReport,
    DefMap,
    Frame,
    RetractionMap,
    SpacePresentation,
    StarMap,
    StarModel,
    build_star,
    retraction,
    robinson_coverage,
    star_map,
)

TEXT = "ground omega\nset A = tail(2)\nsubbase A\nsamples 0 1\n"
PRESENTATION = "SpacePresentation(ground=omega, subbase=(DefSet('tail(2)'),), samples=(0, 1))"
FRAME = "Frame(threshold=2, period=1, words=(4, 1, 2))"
MODEL = (f"StarModel(presentation={PRESENTATION}, atoms=(DefSet('tail(2)'), DefSet('{{0}}'), "
         f"DefSet('{{1}}')), space=FinSpace(n=3, opens=3), embedding=(1, 2), "
         f"labels=(None, 0, 1), frame={FRAME})")
FAMILY = "DyadFamily(maps=(DefSet('tail(2)'),))"


def _model():
    return build_star(SpacePresentation(OMEGA, (DefSet.tail(OMEGA, 2),), (0, 1)))


def _embedding():
    m = _model()
    return dcomp_embed(m, DyadFamily(m.presentation.subbase))


# class, a builder of one instance (called twice for two equal instances),
# and its repr at the last dataclass version
CASES = [
    (Ground, lambda: Ground(None), "omega"),
    (Ground, lambda: Ground(4), "finite(4)"),
    (DefSet, lambda: DefSet(OMEGA, 0b101, 3), "DefSet('{0,2}')"),
    (FinSpace, lambda: FinSpace(2, (0, 1, 3)), "FinSpace(n=2, opens=3)"),
    (PropertyReport, lambda: property_report(FinSpace(2, (0, 1, 3))),
     "PropertyReport(t0=True, t1=False, t2=False, regular=False, completely_regular=False, "
     "normal=True, all_opens_closed=False, compact=True, locally_compact=True, "
     "supercompact=True, witnesses=(('t1', (0, 3)), ('t2', (0, 1)), ('regular', (0, 1)), "
     "('completely_regular', (0, 2)), ('all_opens_closed', (1,))))"),
    (QuotientMap, lambda: t0_reflection(FinSpace(2, (0, 3))),
     "QuotientMap(source=FinSpace(n=2, opens=2), target=FinSpace(n=1, opens=2), "
     "assign=(0, 0))"),
    (SpacePresentation, lambda: _model().presentation, PRESENTATION),
    (Frame, lambda: _model().frame, FRAME),
    (StarModel, _model, MODEL),
    (RetractionMap, lambda: retraction(_model()),
     f"RetractionMap(model={MODEL}, assign=(frozenset({{0, 1}}), frozenset({{0, 1}}), "
     f"frozenset({{0, 1}})))"),
    (CoverageReport, lambda: robinson_coverage(_model()),
     "CoverageReport(covered=True, uncovered=())"),
    (DefMap, lambda: DefMap.identity(OMEGA),
     "DefMap(ground=omega, table=(), rules=(('shift', 0),))"),
    (StarMap, lambda: star_map(DefMap.identity(OMEGA), _model(), _model()),
     f"StarMap(src={MODEL}, dst={MODEL}, atom_map=(0, 1, 2), continuous=True)"),
    (DyadFamily, lambda: DyadFamily(_model().presentation.subbase), FAMILY),
    (DyadEmbedding, _embedding,
     f"DyadEmbedding(family={FAMILY}, image_vectors=(0, 1), image=FinSpace(n=2, opens=3), "
     f"closure_vectors=(0, 1), closure=FinSpace(n=2, opens=3), eval=(1, 1))"),
    (CrosscheckReport, lambda: dcomp_crosscheck(_model(), _embedding()),
     "CrosscheckReport(target=FinSpace(n=2, opens=3), image=FinSpace(n=2, opens=3), "
     "homeomorphic=True, iso=(0, 1))"),
    (PresentationFile, lambda: parse_presentation(TEXT),
     "PresentationFile(ground=omega, sets=(('A', DefSet('tail(2)')),), subbase=('A',), "
     "samples=(0, 1), maps=())"),
    (SweepReport, lambda: SweepReport(1, 2, 3, ((0, 1),), ()),
     "SweepReport(sources=1, targets=2, maps=3, unfactored_pairs=((0, 1),), "
     "nonunique_pairs=())"),
    (ReportItem, lambda: ReportItem("a", "pass"),
     "ReportItem(name='a', status='pass', detail='', witness='')"),
]


@pytest.mark.parametrize("cls, build, text", CASES,
                         ids=[f"{case[0].__name__}-{i}" for i, case in enumerate(CASES)])
def test_value_semantics(cls, build, text):
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert repr(a) == text
    assert cls._fields and all(not name.startswith("_") for name in cls._fields)
    # equal exactly when the class and every field agree
    assert a == b and not a != b
    twin = object.__new__(type("Twin", (Record,), {"__slots__": cls.__slots__}))
    for name in cls.__slots__:
        object.__setattr__(twin, name, getattr(a, name))
    assert a != twin and twin != a
    assert a != tuple(getattr(a, name) for name in cls._fields)
    for name in cls._fields:
        changed = object.__new__(cls)
        for other in cls.__slots__:
            object.__setattr__(changed, other, getattr(a, other))
        object.__setattr__(changed, name, ("changed",))
        assert a != changed, name
    assert hash(a) == hash(b)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_finite_space_equality_ignores_how_it_was_built():
    # from the opens or from the monads: the private caches are not fields
    by_opens, by_monads = FinSpace(2, (0, 1, 3)), FinSpace(2, (), (1, 3))
    assert FinSpace._fields == ("n", "opens")
    assert by_opens == by_monads and hash(by_opens) == hash(by_monads)
    assert by_opens != FinSpace(2, (0, 3)) and by_opens != FinSpace(3, (0, 1, 7))
    assert {by_opens, by_monads} == {by_opens}


def test_property_report_takes_every_flag_by_name():
    flags = dict.fromkeys(PROPERTY_FLAGS, True)
    rep = PropertyReport((), **{**flags, "t1": False})
    assert rep.flags() == {**flags, "t1": False} and rep.witnesses == ()
    with pytest.raises(TypeError):
        PropertyReport((), **{**flags, "t3": True})
    del flags["normal"]
    with pytest.raises(TypeError):
        PropertyReport((), **flags)
