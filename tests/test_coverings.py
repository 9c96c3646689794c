import pytest

from brauertilt.algebra import star_algebra
from brauertilt.complexes import algebra_complex, hom_complex_dim
from brauertilt.coverings import (
    Covering,
    CyclicInterval,
    compatible_pres,
    compatible_stalk,
    complex_label_key,
    covering_to_complex,
    enumerate_coverings,
    enumerate_two_term_tilting_bruteforce,
    interval_module,
    tilting_catalog,
)
from brauertilt.modules import UniserialSpec, uniserial_presentation

from reference import trivial_covering


def test_compatibility_examples():
    # disjoint supports
    assert compatible_pres(UniserialSpec(1, 1), UniserialSpec(4, 1), 6)
    # identical modules
    assert compatible_pres(UniserialSpec(2, 2), UniserialSpec(2, 2), 5)
    # proper overlap of the shifted supports
    assert not compatible_pres(UniserialSpec(3, 2), UniserialSpec(5, 2), 5)
    # length n-1 modules with distinct tops never pair up
    assert not compatible_pres(UniserialSpec(1, 1), UniserialSpec(2, 1), 2)
    with pytest.raises(ValueError):
        compatible_pres(UniserialSpec(1, 2), UniserialSpec(1, 1), 2)


def test_compatible_stalk_examples():
    assert compatible_stalk(UniserialSpec(1, 1), 2, 0, 2)
    assert not compatible_stalk(UniserialSpec(1, 1), 1, 0, 2)
    assert compatible_stalk(UniserialSpec(1, 1), 1, 1, 2)
    # degree-1 support is the support shifted one step down
    assert not compatible_stalk(UniserialSpec(1, 1), 2, 1, 2)


def test_pairwise_compatibility_matches_chain_maps():
    for n, k in [(4, 1), (3, 2)]:
        A = star_algebra(n, k)
        specs = [UniserialSpec(t, l) for t in A.edges for l in range(1, n)]
        press = {(s.top, s.length): uniserial_presentation(A, s.top, s.length) for s in specs}
        for s1 in specs:
            for s2 in specs:
                combinatorial = compatible_pres(s1, s2, n)
                T1, T2 = press[(s1.top, s1.length)], press[(s2.top, s2.length)]
                chain = all(
                    hom_complex_dim(X, Y, s) == 0
                    for X, Y in ((T1, T2), (T2, T1))
                    for s in (1, -1)
                )
                assert combinatorial == chain, (n, k, s1, s2)


@pytest.mark.parametrize("size", range(2, 9))
def test_nested_or_disjoint_is_the_window_rule(size):
    """On the sub-intervals (offset, width) of a window of `size` points,
    read as arcs of a cycle of that many points, nested_or_disjoint is the
    rule on segments: disjoint, or one inside the other."""

    def segments_ok(x1, w1, x2, w2):
        if x1 + w1 <= x2 or x2 + w2 <= x1:
            return True
        return (x1 <= x2 and x2 + w2 <= x1 + w1) or (x2 <= x1 and x1 + w1 <= x2 + w2)

    subs = [(x, w) for w in range(1, size + 1) for x in range(size - w + 1)]
    for x1, w1 in subs:
        for x2, w2 in subs:
            got = CyclicInterval(x1, w1).nested_or_disjoint(CyclicInterval(x2, w2), size)
            assert got == segments_ok(x1, w1, x2, w2)


def test_covering_validation():
    with pytest.raises(ValueError):
        Covering(3, (CyclicInterval(1, 2),), ((),), "deg0")  # misses vertex 3
    with pytest.raises(ValueError):
        Covering(3, (CyclicInterval(1, 3),), ((),), "deg0")  # missing inner
    with pytest.raises(ValueError):
        Covering(
            4,
            (CyclicInterval(1, 4),),
            ((CyclicInterval(1, 4), CyclicInterval(2, 2)),),
            "deg0",
        )  # inner as large as the outer
    with pytest.raises(ValueError):
        Covering(
            4,
            (CyclicInterval(1, 4),),
            ((CyclicInterval(1, 2), CyclicInterval(2, 2)),),
            "deg0",
        )  # crossing inners
    with pytest.raises(ValueError):
        Covering(2, (CyclicInterval(1, 2),), ((),), "deg2")
    for n in (0, -3):
        with pytest.raises(ValueError, match="n >= 1"):
            Covering(n, (), (), "deg1")  # no polygon to cover


def test_enumeration_counts():
    assert len(enumerate_coverings(1)) == 0
    assert len(enumerate_coverings(2)) == 4
    assert len(enumerate_coverings(3)) == 18
    assert len(enumerate_coverings(4)) == 68
    assert len(enumerate_coverings(5)) == 250


def test_worked_covering_summands():
    A = star_algebra(4, 1)
    cov = Covering(
        4,
        (CyclicInterval(1, 4),),
        ((CyclicInterval(2, 3), CyclicInterval(2, 2)),),
        "deg0",
    )
    T = covering_to_complex(cov, A)
    assert [l.display() for l in T.labels] == [
        "P_4->P_1",
        "P_4->P_2",
        "P_3->P_2",
        "P_1[deg 0]",
    ]
    # the stalk shares its degree with the lower terms of the presentations
    stalk = next(l for l in T.labels if l.kind == "stalk")
    assert stalk.key[2] == min(T.degrees())


def test_two_gon_modes():
    A = star_algebra(2, 1)
    deg0 = covering_to_complex(Covering(2, (CyclicInterval(2, 2),), ((),), "deg0"), A)
    assert {l.key for l in deg0.labels} == {
        ("stalk", 2, 0),
        ("pres", ("uniserial", 1, 1)),
    }
    deg1 = covering_to_complex(Covering(2, (CyclicInterval(2, 2),), ((),), "deg1"), A)
    assert {l.key for l in deg1.labels} == {
        ("stalk", 1, 1),
        ("pres", ("uniserial", 1, 1)),
    }


def test_trivial_covering_is_algebra():
    A = star_algebra(3, 2)
    T = covering_to_complex(trivial_covering(3, "deg0"), A)
    assert complex_label_key(T) == complex_label_key(algebra_complex(A, 0))
    T1 = covering_to_complex(trivial_covering(3, "deg1"), A)
    assert complex_label_key(T1) == complex_label_key(algebra_complex(A, 1))


def test_interval_module_translation():
    assert interval_module(CyclicInterval(1, 4), 4) == UniserialSpec(4, 3)
    assert interval_module(CyclicInterval(2, 2), 4) == UniserialSpec(3, 1)
    with pytest.raises(ValueError):
        interval_module(CyclicInterval(1, 1), 4)


def test_catalog_filters_by_self_orthogonality():
    A = star_algebra(3, 2)
    labels = {T.labels[0].key for T in tilting_catalog(A)}
    # uniserials of length >= n are filtered out by the chain maps alone
    assert ("pres", ("uniserial", 1, 2)) in labels
    assert ("pres", ("uniserial", 1, 3)) not in labels
    assert ("pres", ("uniserial", 1, 6)) not in labels
    assert ("stalk", 1, 0) in labels and ("stalk", 1, 1) in labels


def test_bruteforce_counts_and_budget():
    assert len(enumerate_two_term_tilting_bruteforce(star_algebra(1, 1))) == 2
    assert len(enumerate_two_term_tilting_bruteforce(star_algebra(2, 2))) == 6
    with pytest.raises(ValueError):
        enumerate_two_term_tilting_bruteforce(star_algebra(6, 1))
    with pytest.raises(ValueError):
        enumerate_two_term_tilting_bruteforce(star_algebra(2, 3))


def test_uniform_stalk_degree_in_tilting_complexes():
    for T in enumerate_two_term_tilting_bruteforce(star_algebra(3, 1)):
        degrees = {l.key[2] for l in T.labels if l.kind == "stalk"}
        assert len(degrees) <= 1
