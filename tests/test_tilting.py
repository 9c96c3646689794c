from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauertilt import complexes, linalg, modules, verify
from brauertilt.algebra import DEFAULT_PRIME, build_tree_algebra, socle_class, star_algebra
from brauertilt.complexes import (
    ProjComplex,
    algebra_complex,
    direct_sum,
    euler_pairing,
    hom_complex_dim,
    stalk_complex,
)
from brauertilt.coverings import (
    covering_to_complex,
    enumerate_coverings,
    enumerate_two_term_tilting_bruteforce,
    tilting_catalog,
)
from brauertilt.endo import summand_complexes
from brauertilt.modules import (
    UniserialSpec,
    enumerate_indecomposables,
    min_proj_presentation,
    simple_rep,
    uniserial_presentation as pres,
    uniserial_rep,
)
from brauertilt.realization import realize
from brauertilt.tilting import (
    TiltingComplex,
    classes_span_k0,
    hom_to_module,
    is_partial_tilting,
    is_tilting,
    module_partial_tilting_test,
    shift_range,
)
from brauertilt.trees import all_brauer_trees

from reference import named_presentation, socle_quotient_rep, stalk_orthogonality_test


def test_algebra_stalks_tilting():
    A = star_algebra(3, 2)
    assert is_tilting(algebra_complex(A, 0), direct=True)
    assert is_tilting(algebra_complex(A, 1), direct=True)


def test_socle_quotient_not_partial_tilting():
    A = star_algebra(2, 1)
    PS, _ = socle_quotient_rep(A, 1)
    T = min_proj_presentation(PS)
    assert not is_partial_tilting(T, direct=True)
    assert not module_partial_tilting_test(PS)
    assert is_partial_tilting(min_proj_presentation(simple_rep(A, 1)), direct=True)
    assert module_partial_tilting_test(simple_rep(A, 1))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_socle_quotient_presentation_is_the_socle_map(k):
    """P_e/soc(P_e), built as a quotient module, is presented by P_e -> P_e,
    right multiplication by a nonzero multiple of z_e: the rule the
    socle-quotient suite checks its failing presentations against, over
    every star with n <= 5 and, at k = 1, every tree with at most 5 edges."""
    algebras = [star_algebra(n, k) for n in range(1, 6)]
    if k == 1:
        algebras += [build_tree_algebra(t) for n in range(1, 6) for t in all_brauer_trees(n, 1)]
    for A in algebras:
        for e in A.edges:
            T = min_proj_presentation(socle_quotient_rep(A, e)[0])
            assert T.comps == {0: (e,), 1: (e,)}
            (entry,), = T.diff(0)
            assert list(entry) == [socle_class(e)] and entry[socle_class(e)] % A.prime
            assert verify._socle_edge(T) == e


@pytest.mark.parametrize("swap", ["shape", "edge"])
def test_socle_quotient_suite_reports_a_presentation_of_another_shape(monkeypatch, swap):
    """The suite fails when a failing presentation is not P_e -> P_e by a
    socle multiple ("shape": the first one is doubled), or when the edges
    of those presentations do not cover the edges once each ("edge": each
    is replaced by the one of the algebra's first edge)."""
    real = verify.min_proj_presentation
    swapped = []

    def presentation(M):
        T = real(M)
        A = M.algebra
        if verify._socle_edge(T) is None or (swap == "shape" and swapped):
            return T
        swapped.append(T)
        if swap == "shape":
            return direct_sum([T, T])
        return real(socle_quotient_rep(A, A.edges[0])[0])

    monkeypatch.setattr(verify, "min_proj_presentation", presentation)
    res = verify.suite_socle_quotient(DEFAULT_PRIME)
    assert swapped and not res.ok
    assert {f[1] for f in res.failures} == {"unmatched" if swap == "shape" else "edges"}


def test_is_tilting_needs_labels_and_distinct_summands():
    # A built as one complex is one part, of class (1, 1): rank 1 < 2
    A = star_algebra(2, 1)
    T = ProjComplex(A, {0: (1, 2)}, {})
    assert not is_tilting(T)
    repeated = direct_sum([stalk_complex(A, 1, 0), stalk_complex(A, 1, 0)])
    assert not is_tilting(repeated)


def test_is_tilting_counts_summands_not_labels():
    # S_1 + S_1 presented under two different names is not tilting
    A = star_algebra(2, 1)
    twice = direct_sum([
        pres(A, 1, 1),
        named_presentation(simple_rep(A, 1), ("string", "S1")),
    ])
    assert len({l.key for l in twice.labels}) == A.n
    assert not is_tilting(twice)
    assert not is_tilting(twice, direct=True)


def test_is_tilting_refuses_a_decomposable_part():
    # S_1 + (S_1 + S_1 built as one complex): three copies of one
    # summand, with part classes (-1, 1) and (-2, 2) of rank 1 < 2
    A = star_algebra(2, 1)
    S = pres(A, 1, 1)
    SS = direct_sum([S, S])
    Y = ProjComplex(A, SS.comps, SS.diffs)
    T = direct_sum([S, Y])
    assert len({P.k0_class() for P in T.parts}) == A.n
    assert not is_tilting(T)
    assert not is_tilting(T, direct=True)


def test_is_tilting_refuses_three_degrees():
    A = star_algebra(3, 1)
    T = direct_sum([stalk_complex(A, e, d) for e, d in ((1, 0), (2, 1), (3, 2))])
    with pytest.raises(ValueError, match="two-term"):
        is_tilting(T)


def test_catalog_classes_distinct_on_stars():
    # the fact is_tilting rests on: distinct indecomposable two-term partial
    # tilting complexes have distinct classes in K_0
    for n in range(1, 6):
        for k in (1, 2):
            catalog = tilting_catalog(star_algebra(n, k))
            assert len({T.k0_class() for T in catalog}) == len(catalog) == n * (n + 1)


def test_partial_tilting_classes_distinct_on_trees():
    for n in range(1, 5):
        for tree in all_brauer_trees(n, 1):
            A = build_tree_algebra(tree)
            members = [
                T
                for label, M in enumerate_indecomposables(A)
                if label[0] != "projective"
                for T in [min_proj_presentation(M)]
                if is_partial_tilting(T, direct=True)
            ]
            members += [stalk_complex(A, e, d) for e in A.edges for d in (0, 1)]
            assert len({T.k0_class() for T in members}) == len(members) == n * (n + 1)


def test_module_criterion_reads_a_given_presentation(monkeypatch):
    """Once the module criterion has built a module's presentation, it
    reads the interned complex again and builds none."""
    A = star_algebra(3, 2)
    catalogue = nonprojective_indecomposables(3, 2, A.prime)
    expected = [module_partial_tilting_test(M) for M in catalogue]

    def refuse(M):
        raise AssertionError("presentation built again")

    monkeypatch.setattr(modules, "_presentation", refuse)
    got = [module_partial_tilting_test(M) for M in catalogue]
    assert got == expected
    assert True in got and False in got


def test_module_criterion_rejects_projectives():
    A = star_algebra(2, 1)
    from brauertilt.modules import projective_rep

    with pytest.raises(ValueError):
        module_partial_tilting_test(projective_rep(A, 1))


def test_hom_to_module_matches_shifted_self_hom():
    # Hom_{K^b}(T, M) equals Hom(T, T[1]) for the minimal presentation of M
    for n, k in [(3, 1), (2, 2), (4, 1)]:
        A = star_algebra(n, k)
        for top in A.edges:
            for l in range(1, n * k + 1):
                M = uniserial_rep(A, UniserialSpec(top, l))
                T = min_proj_presentation(M)
                assert hom_to_module(T, M) == hom_complex_dim(T, T, 1, direct=True)


def test_stalk_orthogonality():
    A = star_algebra(2, 1)
    S1 = simple_rep(A, 1)
    assert stalk_orthogonality_test(S1, 2, 0)
    assert not stalk_orthogonality_test(S1, 1, 0)
    assert stalk_orthogonality_test(S1, 1, 1)
    PS, _ = socle_quotient_rep(A, 1)
    with pytest.raises(ValueError):
        stalk_orthogonality_test(PS, 2, 0)
    A5 = star_algebra(5, 1)
    M = uniserial_rep(A5, UniserialSpec(3, 2))  # factors (3, 2)
    for m in A5.edges:
        assert stalk_orthogonality_test(M, m, 0) == (
            m not in (3, 2)
        )


def test_stalk_membership_matches_chain_maps():
    A = star_algebra(3, 1)
    for top in A.edges:
        M = uniserial_rep(A, UniserialSpec(top, 2))
        T = pres(A, top, 2)
        for m in A.edges:
            for d in (0, 1):
                by_module = stalk_orthogonality_test(M, m, d)
                S = stalk_complex(A, m, d)
                by_chain = all(
                    hom_complex_dim(X, Y, s, direct=True) == 0
                    for X, Y in ((T, S), (S, T))
                    for s in (1, -1)
                )
                assert by_module == by_chain


def test_zero_complex_is_partial_tilting_and_not_tilting():
    """The zero complex has no Homs: no shift to check, partial tilting,
    and not tilting since its class spans nothing."""
    A = star_algebra(3, 1)
    Z = ProjComplex(A, {}, {})
    assert shift_range(Z, Z) == []
    assert shift_range(Z, algebra_complex(A, 0)) == shift_range(algebra_complex(A, 0), Z) == []
    for direct in (False, True):
        assert is_partial_tilting(Z, direct=direct)
        assert not is_tilting(Z, direct=direct)


@lru_cache(maxsize=None)
def nonprojective_indecomposables(n, k, p):
    A = star_algebra(n, k, prime=p)
    return [M for label, M in enumerate_indecomposables(A) if label[0] != "projective"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([(n, k) for n in range(1, 5) for k in range(1, 4)]),
    st.sampled_from((2, 3, 32003, 2**31 - 1)),
    st.data(),
)
def test_direct_decision_matches_module_criterion(nk, p, data):
    M = data.draw(st.sampled_from(nonprojective_indecomposables(*nk, p)))
    by_chain = is_partial_tilting(min_proj_presentation(M), direct=True)
    assert by_chain == module_partial_tilting_test(M)


# -- the Calabi-Yau shortcut: positive shifts only ------------------------------------


def partial_tilting_both_shifts(T):
    """Reference without the duality: every nonzero shift, both signs."""
    return all(hom_complex_dim(T, T, s, direct=True) == 0 for s in shift_range(T, T))


@lru_cache(maxsize=None)
def two_term_parts(source, p):
    """Two-term pieces over one algebra: every uniserial presentation and
    stalk of a star (the catalogue and the members it filters out), or the
    presentations of all nonprojective indecomposables and the stalks of a
    multiplicity-1 tree."""
    if source[0] == "star":
        A = star_algebra(*source[1:], prime=p)
        nk = A.n * A.tree.multiplicity
        parts = [pres(A, top, l) for top in A.edges for l in range(1, nk + 1)]
    else:
        A = build_tree_algebra(all_brauer_trees(source[1], 1)[source[2]], prime=p)
        parts = [
            min_proj_presentation(M)
            for label, M in enumerate_indecomposables(A)
            if label[0] != "projective"
        ]
    return parts + [stalk_complex(A, e, d) for e in A.edges for d in (0, 1)]


SOURCES = [("star", n, k) for n in range(1, 5) for k in (1, 2)] + [
    ("tree", n, i) for n in range(1, 5) for i in range(len(all_brauer_trees(n, 1)))
]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SOURCES), st.sampled_from((2, 3, 32003)), st.data())
def test_partial_tilting_equals_both_shift_reference(source, p, data):
    parts = two_term_parts(source, p)
    chosen = data.draw(st.lists(st.sampled_from(parts), min_size=1, max_size=3))
    T = direct_sum(chosen)
    expected = partial_tilting_both_shifts(T)
    assert is_partial_tilting(T, direct=True) == expected
    assert is_partial_tilting(T) == expected


def test_tilting_decisions_build_spaces_at_shift_one_only(monkeypatch):
    built = []

    class Counting(complexes.ChainMapSpace):
        def __init__(self, Q, R, s):
            built.append(s)
            super().__init__(Q, R, s)

    A = star_algebra(4, 1)
    T = covering_to_complex(enumerate_coverings(4)[-1], A)
    monkeypatch.setattr(complexes, "ChainMapSpace", Counting)
    assert is_tilting(T, direct=True)
    assert built == [1]  # one direct decision, one space
    built.clear()
    assert is_partial_tilting(pres(A, 1, 4), direct=True) is False
    assert built == [1]
    built.clear()
    assert len(enumerate_two_term_tilting_bruteforce(star_algebra(3, 1))) == 20
    assert built and set(built) == {1}  # catalogue, pairwise filter, final checks


def test_direct_decisions_eliminate_sparse_rows_only(monkeypatch):
    """is_tilting(direct=True) over the coverings of star(4, 1) needs only
    ranks: every elimination it runs, the class rank and the chain-map
    spaces alike, is a forward pass on sparse rows, and none of them is
    back-substituted (no rref, no reduced form)."""
    A = star_algebra(4, 1)
    complexes_ = [covering_to_complex(cov, A) for cov in enumerate_coverings(4)]
    assert len(complexes_) == 68
    kinds, reduced = [], []
    echelon, back_substitute = linalg.echelon, linalg.back_substitute

    def recording_echelon(a, p):
        kinds.append(type(a))
        return echelon(a, p)

    def recording_back_substitute(ech, pivots, p):
        reduced.append(ech.shape)
        return back_substitute(ech, pivots, p)

    monkeypatch.setattr(linalg, "echelon", recording_echelon)
    monkeypatch.setattr(linalg, "back_substitute", recording_back_substitute)
    assert all(is_tilting(T, direct=True) for T in complexes_)
    # at least the class rank and the null-homotopic rows of each decision
    assert len(kinds) >= 2 * 68
    assert set(kinds) == {linalg.SparseRows}
    assert reduced == []


class _RecordingCache(dict):
    """A dict that records every read and write of an entry."""

    def __init__(self, touched):
        super().__init__()
        self.touched = touched

    def get(self, key, default=None):
        self.touched.append(("get", key))
        return super().get(key, default)

    def __getitem__(self, key):
        self.touched.append(("getitem", key))
        return super().__getitem__(key)

    def __contains__(self, key):
        self.touched.append(("contains", key))
        return super().__contains__(key)

    def __setitem__(self, key, value):
        self.touched.append(("set", key))
        super().__setitem__(key, value)

    def setdefault(self, key, default=None):
        self.touched.append(("setdefault", key))
        return super().setdefault(key, default)


def test_direct_decisions_build_one_space_over_the_complex(monkeypatch):
    """direct=True is one whole-complex elimination: is_tilting(T,
    direct=True) and hom_complex_dim(T, T, s, direct=True) each build
    exactly one ChainMapSpace, over T itself at the shift asked for, and
    read or write no entry of hom_cache.  Checked on the covering complex
    of star(4, 1) and on a permuted direct sum of its parts."""
    A = star_algebra(4, 1)
    T = covering_to_complex(enumerate_coverings(4)[-1], A)
    parts = summand_complexes(T)
    assert len(parts) == 4
    S = direct_sum([parts[j] for j in (2, 0, 3, 1)])
    built, touched = [], []
    init = complexes.ChainMapSpace.__init__

    def recording_init(self, Q, R, s):
        built.append((Q, R, s))
        init(self, Q, R, s)

    monkeypatch.setattr(complexes.ChainMapSpace, "__init__", recording_init)
    monkeypatch.setattr(A, "hom_cache", _RecordingCache(touched))
    for X in (T, S):
        built.clear()
        assert is_tilting(X, direct=True)
        assert [(Q is X, R is X, s) for Q, R, s in built] == [(True, True, 1)]
        for s in (-1, 0, 1):
            built.clear()
            dim = hom_complex_dim(X, X, s, direct=True)
            assert [(Q is X, R is X, t) for Q, R, t in built] == [(True, True, s)]
            # a tilting complex has Homs in shift 0 only, where they pair to
            # the Euler form
            assert dim == (euler_pairing(X, X) if s == 0 else 0)
    assert touched == [] and len(A.hom_cache) == 0
    # the spy sees the cached route
    assert hom_complex_dim(S, S, 1) == 0 and touched


# -- the Euler test that decides a realized complex --------------------------------


@lru_cache(maxsize=None)
def tilting_complexes(source, p):
    """Tilting complexes over the algebra of two_term_parts(source, p): A
    in degrees 0 and 1, and over a star also the realized complex of every
    tree of its type in both stalk degrees and every covering complex."""
    A = two_term_parts(source, p)[0].algebra
    out = [algebra_complex(A, d) for d in (0, 1)]
    if source[0] == "star":
        out += [realize(t, A, d) for t in all_brauer_trees(*source[1:]) for d in (0, 1)]
        out += [covering_to_complex(c, A) for c in enumerate_coverings(A.n)]
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SOURCES), st.sampled_from((2, 3, 32003)), st.booleans(), st.data())
def test_the_euler_test_decides_as_the_shift_one_space(source, p, summed, data):
    """TiltingComplex(parts) accepts T exactly when is_tilting does, on
    tilting complexes and on sums of 1 to n + 2 two-term pieces, catalogue
    members and presentations with self-extensions among them, so that many
    sums are not partial tilting; and dim End(T) less the Euler form is
    dim Hom(T, T[1]) + dim Hom(T, T[-1]), each from its own space."""
    if summed:
        pieces = two_term_parts(source, p)
        parts = data.draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=source[1] + 2))
    else:
        parts = list(data.draw(st.sampled_from(tilting_complexes(source, p))).parts)
    T = direct_sum(parts)
    try:
        TiltingComplex(parts)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == is_tilting(T, direct=True)
    assert (complexes.ChainMapSpace(T, T, 0).dim - euler_pairing(T, T)
            == hom_complex_dim(T, T, 1, direct=True) + hom_complex_dim(T, T, -1, direct=True))


# -- Hom(T, T[1]) and Hom(T, T[-1]) read from the Euler form -------------------------


@lru_cache(maxsize=None)
def star_catalogue(n, k, p):
    return tilting_catalog(star_algebra(n, k, prime=p))


def shift_one_both_ways(T):
    """dim End(T) less the Euler form, as TiltingComplex reads it, and
    dim Hom(T, T[1]) + dim Hom(T, T[-1]) from the spaces at shifts 1 and -1,
    with dim Hom(T, T[1]) on its own."""
    from_euler = complexes.ChainMapSpace(T, T, 0).dim - euler_pairing(T, T)
    one = hom_complex_dim(T, T, 1, direct=True)
    return from_euler, one + hom_complex_dim(T, T, -1, direct=True), one


def refused(parts):
    try:
        TiltingComplex(parts)
    except ValueError:
        return True
    return False


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([(n, k) for n in range(1, 5) for k in (1, 2)]),
    st.sampled_from((2, 3, 32003)),
    st.data(),
)
def test_shift_one_dim_on_catalogue_sums(nk, p, data):
    """dim End(T) - <[T], [T]> is dim Hom(T, T[1]) + dim Hom(T, T[-1]) on
    sums of 1-5 catalogue members, which conflict often enough that it is
    not 0; TiltingComplex refuses the sum exactly when it is not 0 or the
    classes of the sum do not span K_0(A)."""
    members = data.draw(st.lists(st.sampled_from(star_catalogue(*nk, p)), min_size=1, max_size=5))
    T = direct_sum(members)
    from_euler, from_spaces, _ = shift_one_both_ways(T)
    assert from_euler == from_spaces
    assert refused(members) == (from_euler > 0 or not classes_span_k0(T))


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_shift_one_dim_is_nonzero_where_the_shift_one_space_is(p):
    """The identity where it is not zero: P_e in both degrees over every
    star with n <= 4 and k <= 2, with a catalogue member beside it, and the
    presentation of P_e/soc(P_e) over every multiplicity-1 tree with at
    most 4 edges, which has self-extensions. TiltingComplex refuses each."""
    seen = []
    for n in range(1, 5):
        for k in (1, 2):
            catalogue = star_catalogue(n, k, p)
            A = catalogue[0].algebra
            for e in A.edges:
                for member in catalogue[:3]:
                    parts = [stalk_complex(A, e, 0), stalk_complex(A, e, 1), member]
                    seen.append(shift_one_both_ways(direct_sum(parts)) + (refused(parts),))
    for n in range(1, 5):
        for tree in all_brauer_trees(n, 1):
            A = build_tree_algebra(tree, prime=p)
            for e in A.edges:
                T = min_proj_presentation(socle_quotient_rep(A, e)[0])
                seen.append(shift_one_both_ways(T) + (refused([T]),))
    assert all(
        from_euler == from_spaces >= one > 0 and was_refused
        for from_euler, from_spaces, one, was_refused in seen
    )
