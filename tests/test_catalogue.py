import pytest

from brauertilt import complexes
from brauertilt.algebra import build_tree_algebra, star_algebra
from brauertilt.catalogue import pair_dims
from brauertilt.complexes import ChainMapSpace, stalk_complex
from brauertilt.coverings import (
    enumerate_two_term_tilting_bruteforce,
    star_catalogue,
    tilting_catalog,
)
from brauertilt.modules import uniserial_presentation
from brauertilt.trees import all_brauer_trees

from reference import boolean_table_cliques
from test_realization import spy_is_tilting

STARS = [(n, k) for n in range(1, 6) for k in (1, 2)]


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_pair_dims_equal_each_pair_space(p):
    """One space over the sum of the members gives every ordered pair's
    dim Hom(u, v[s]) at s = -1, 0 and 1, as the pair's own space does, on
    every star the brute force accepts and on star(6, 1); the catalogue
    wrote its shift-1 dimensions to hom_cache."""
    for n, k in STARS + [(6, 1)]:
        A = star_algebra(n, k, p)
        members = star_catalogue(A).members
        assert list(members) == tilting_catalog(A)
        for s in (-1, 0, 1):
            dims = pair_dims(members, s)
            for i, u in enumerate(members):
                for j, v in enumerate(members):
                    assert dims[i, j] == ChainMapSpace(u, v, s).dim, (n, k, s, i, j)
                    if s == 1:
                        assert A.hom_cache[(u, v, 1)] == dims[i, j]


def test_a_wrong_cached_dimension_stops_the_build():
    """A pair already in hom_cache must agree with the catalogue's space."""
    A = star_algebra(3, 1)
    u, v = uniserial_presentation(A, 1, 1), stalk_complex(A, 2, 1)
    right = ChainMapSpace(u, v, 1).dim
    A.hom_cache[(u, v, 1)] = right + 1
    with pytest.raises(AssertionError, match="cached Hom dimension"):
        star_catalogue(A)
    assert A.catalogue is None
    A.hom_cache[(u, v, 1)] = right
    assert u in star_catalogue(A).members and v in star_catalogue(A).members


def test_one_symmetric_catalogue_per_star():
    """Each member is on its own row, the rows are symmetric, and the
    catalogue is built once per algebra and only over a star."""
    A = star_algebra(4, 2)
    cat = star_catalogue(A)
    m = len(cat.members)
    for i in range(m):
        assert cat.rows[i] >> i & 1
        for j in range(m):
            assert (cat.rows[i] >> j & 1) == (cat.rows[j] >> i & 1)
    assert star_catalogue(A) is cat and star_catalogue(star_algebra(4, 2)) is not cat
    tree = next(t for t in all_brauer_trees(3, 1) if not t.is_star())
    with pytest.raises(ValueError, match="canonical Brauer star"):
        star_catalogue(build_tree_algebra(tree))


@pytest.mark.parametrize("n, k", STARS)
def test_bitmask_search_finds_the_boolean_table_cliques(n, k):
    """The brute force's cliques are those of the table-of-booleans search
    (tests/reference.py), in the same order."""
    A = star_algebra(n, k)
    assert [T.parts for T in enumerate_two_term_tilting_bruteforce(A)] == boolean_table_cliques(A)


def test_brute_force_builds_one_space_per_clique_and_one_for_the_catalogue(monkeypatch):
    """On a fresh star(4, 1) the brute force builds the filter's space
    Hom(u, u[1]) for each uniserial presentation, one shift-1 space over
    the sum of the catalogue's members, and one direct space Hom(T, T[1])
    per clique in two degrees (A and A[1], in one degree each, need none),
    and nothing else; is_tilting runs once per clique."""
    built, calls = [], []
    init = complexes.ChainMapSpace.__init__

    def recording_init(self, Q, R, s):
        built.append((Q, R, s))
        init(self, Q, R, s)

    monkeypatch.setattr(complexes.ChainMapSpace, "__init__", recording_init)
    spy_is_tilting(monkeypatch, calls)
    A = star_algebra(4, 1)
    found = enumerate_two_term_tilting_bruteforce(A)
    assert len(found) == 70
    items = [uniserial_presentation(A, top, l) for top in A.edges for l in range(1, 5)]
    members = A.catalogue.members
    assert len(members) == 20
    assert built[:16] == [(u, u, 1) for u in items]
    (Q, R, s), = built[16:17]
    assert Q is R and Q.parts == members and s == 1
    two_term = [T for T in found if len(T.comps) == 2]
    assert len(two_term) == 68
    assert built[17:] == [(T, T, 1) for T in two_term]
    assert [args[0] for args in calls] == found
