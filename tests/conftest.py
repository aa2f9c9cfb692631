import pytest

from splicekit import fixtures
from splicekit.corpus import dominant_trees, two_node_graphs


@pytest.fixture(scope="session")
def g1():
    return fixtures.g1()


@pytest.fixture(scope="session")
def g17():
    return fixtures.g17()


@pytest.fixture(scope="session")
def g90():
    return fixtures.g90()


@pytest.fixture(scope="session")
def star():
    return fixtures.star()


@pytest.fixture(scope="session")
def fat_branch():
    return fixtures.fat_branch()


@pytest.fixture(scope="session")
def fixture_map():
    return fixtures.fixture_graphs()


@pytest.fixture(scope="session")
def random_trees():
    return dominant_trees(100)


@pytest.fixture(scope="session")
def small_trees():
    return dominant_trees(30, max_vertices=10, seed=71)


@pytest.fixture(scope="session")
def corpus():
    """The acceptance corpus: the five fixtures, 100 dominant trees on up to
    25 vertices and 50 two-node graphs."""
    return (
        list(fixtures.fixture_graphs().values())
        + dominant_trees(100)
        + two_node_graphs(50)
    )


@pytest.fixture(scope="session")
def two_node_corpus():
    return two_node_graphs(50)
