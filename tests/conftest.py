import pytest

from stampbase.basis import Basis
from stampbase.search import BasisDFS, PBasisRecord, classify_raw


def pytest_addoption(parser):
    parser.addoption("--run-long", action="store_true",
                     help="also run the tests marked long, which take minutes")


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--run-long"):
        skip = pytest.mark.skip(reason="takes minutes; run with --run-long")
        for item in items:
            if "long" in item.keywords:
                item.add_marker(skip)


def classified_leaves(p, extra=0):
    """(elements, extensible, symmetricisable) of every p-basis with `extra` free elements on top."""
    dfs = BasisDFS(p, p - 1 + extra, constrained=p - 1)
    for elems in dfs:
        yield (elems, *classify_raw(elems, dfs.leaf_cov, dfs.leaf_mask, p))


@pytest.fixture(scope="session")
def classified():
    """Classification records for p = 3..10, computed once per session."""
    return {
        p: [PBasisRecord(Basis(elems), p, elems[-1], ext, sym)
            for elems, ext, sym in classified_leaves(p)]
        for p in range(3, 11)
    }
