import pytest

from corpus import corpus_presentations, presentation_of_space
from topolab.fintop import enumerate_topologies
from topolab.star import build_star


@pytest.fixture(scope="session")
def enumerations():
    """All topologies on 0..4 labeled points, keyed by point count."""
    return {n: list(enumerate_topologies(n)) for n in range(5)}


@pytest.fixture(scope="session")
def corpus_models():
    return [(name, p, build_star(p)) for name, p in corpus_presentations()]


@pytest.fixture(scope="session")
def enum_models(enumerations):
    """The model of every topology on 0..4 labeled points, presented with
    its full algebra, as (name, model, space)."""
    return [(f"enum{n}", build_star(presentation_of_space(s)), s)
            for n in range(5) for s in enumerations[n]]


@pytest.fixture(scope="session")
def named_models(corpus_models, enum_models):
    """(name, model) for the corpus and for every topology on 0..4 points."""
    return ([(name, m) for name, _, m in corpus_models]
            + [(name, m) for name, m, _ in enum_models])
