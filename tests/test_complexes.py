import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauertilt import complexes, linalg
from brauertilt.algebra import (
    DEFAULT_PRIME,
    PathClass,
    build_tree_algebra,
    idempotent,
    star_algebra,
)
from brauertilt.complexes import (
    ChainMap,
    ChainMapSpace,
    ProjComplex,
    _product,
    algebra_complex,
    direct_sum,
    euler_pairing,
    hom_complex_dim,
    identity_chain_map,
    map_vector,
    stalk_complex,
)
from brauertilt.coverings import (
    complex_label_key,
    covering_to_complex,
    enumerate_coverings,
    tilting_catalog,
)
from brauertilt.endo import EndoAlgebra, summand_complexes
from brauertilt.modules import enumerate_indecomposables, min_proj_presentation
from brauertilt.modules import uniserial_presentation as pres
from brauertilt.realization import realize
from brauertilt.trees import all_brauer_trees

from dense_reference import as_dict, column, dense
from reference import basis_maps, map_from_vector, trivial_covering


def is_null_homotopic(sp, f):
    """Whether the chain map f of the space sp is zero modulo homotopy."""
    return not sp.quotient_coords([map_vector(f, sp.offsets)])[0]


def kernel_from_rref(red, pivots, p):
    """The numpy reference kernel basis of a reduced matrix: one row per
    free column, 1 there and minus that column of the reduced rows at the
    pivots."""
    cols = red.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=object)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for r, c in enumerate(pivots):
            basis[i, c] = -red[r, f] % p
    return basis


def test_stalk_hom_dims():
    for n, k in [(2, 1), (3, 2)]:
        A = star_algebra(n, k)
        for d in (0, 1):
            assert hom_complex_dim(stalk_complex(A, 1, d), stalk_complex(A, 1, d), 0) == k + 1
            assert hom_complex_dim(stalk_complex(A, 1, d), stalk_complex(A, 2, d), 0) == k


@pytest.mark.parametrize("degree", [1.5, "1.5", "x", None], ids=["float", "string", "word", "none"])
def test_degrees_must_be_integers(degree):
    """ProjComplex, ChainMap and stalk_complex refuse a degree that is no
    integer, naming it, where int() would truncate 1.5 to degree 1, and
    stalk_complex interns nothing for it; integers and the digit strings
    of JSON keys are read as their integers."""
    A = star_algebra(3, 1)
    named = re.escape(f"degree {degree!r} is not an integer")
    P = stalk_complex(A, 1, 1)
    interned = set(A.summand_cache)
    with pytest.raises(ValueError, match=named):
        ProjComplex(A, {degree: (1,)}, {})
    with pytest.raises(ValueError, match=named):
        ProjComplex(A, {0: (2,), 1: (1,)}, {degree: [[{}]]})
    with pytest.raises(ValueError, match=named):
        stalk_complex(A, 1, degree)
    with pytest.raises(ValueError, match=named):
        ChainMap(P, P, 0, {degree: [[{idempotent(1): 1}]]})
    assert set(A.summand_cache) == interned
    assert ProjComplex(A, {"1": (1,)}, {}).comps == P.comps == {1: (1,)}
    assert ProjComplex(A, {"-1": (1,)}, {}).comps == {-1: (1,)}
    assert ChainMap(P, P, 0, {"1": [[{idempotent(1): 1}]]}).comps == identity_chain_map(P).comps
    assert stalk_complex(A, 1, 1) is P


@pytest.mark.parametrize("shift", [0.5, 1.5, "1.5", "x", None],
                         ids=["half", "float", "string", "word", "none"])
def test_shifts_must_be_integers(shift):
    """hom_complex_dim, ChainMapSpace and ChainMap refuse a shift that is no
    integer, naming it, as they refuse such a degree, and hom_complex_dim
    caches nothing for it; integer shifts, and their digit strings, are
    read as before."""
    A = star_algebra(3, 1)
    P = pres(A, 2, 1)
    named = re.escape(f"degree {shift!r} is not an integer")
    with pytest.raises(ValueError, match=named):
        hom_complex_dim(P, P, shift)
    with pytest.raises(ValueError, match=named):
        hom_complex_dim(P, P, shift, direct=True)
    with pytest.raises(ValueError, match=named):
        ChainMapSpace(P, P, shift)
    with pytest.raises(ValueError, match=named):
        ChainMap(P, P, shift, {})
    assert A.hom_cache == {}
    for s in (-1, 0, 1):
        assert hom_complex_dim(P, P, s) == hom_complex_dim(P, P, str(s)) == ChainMapSpace(P, P, s).dim
        assert ChainMapSpace(P, P, str(s)).s == ChainMap(P, P, str(s), {}).s == s
    assert hom_complex_dim(P, P, 0) == 2 and hom_complex_dim(P, P, 1) == 0
    assert set(A.hom_cache) == {(P, P, s) for s in (-1, 0, 1)}


def test_disjoint_degrees_vanish():
    A = star_algebra(2, 1)
    T = pres(A, 1, 1)
    assert hom_complex_dim(T, T, 2) == 0
    assert hom_complex_dim(T, T, -2) == 0


def test_equal_interval_self_hom():
    A = star_algebra(3, 1)
    T = pres(A, 1, 1)
    assert hom_complex_dim(T, T, 0, direct=True) == 2
    assert euler_pairing(T, T) == 2


def test_additive_equals_direct():
    A = star_algebra(3, 1)
    parts = [pres(A, 1, 2), pres(A, 2, 1), stalk_complex(A, 3, 0)]
    T = direct_sum(parts)
    for s in (-1, 0, 1):
        assert hom_complex_dim(T, T, s) == hom_complex_dim(T, T, s, direct=True)


def test_shift_duality_sample():
    A = star_algebra(4, 1)
    T = direct_sum([pres(A, 1, 3), stalk_complex(A, 3, 1)])
    assert hom_complex_dim(T, T, 1, direct=True) == hom_complex_dim(T, T, -1, direct=True)


def test_differential_square_checked():
    A = star_algebra(2, 1)
    a1 = A.star_path(1, 1)
    e1 = idempotent(1)
    comps = {0: (1,), 1: (2,), 2: (1,)}
    diffs = {0: [[{a1: 1}]], 1: [[{A.star_path(2, 1): 1}]]}
    with pytest.raises(ValueError, match="square"):
        ProjComplex(A, comps, diffs)
    # entries must live in the right block
    with pytest.raises(ValueError):
        ProjComplex(A, {0: (1,), 1: (2,)}, {0: [[{e1: 1}]]})
    # and be basis classes: a path of length 7 from edge 1 to edge 2 is none
    with pytest.raises(ValueError, match="not a basis class"):
        ProjComplex(A, {0: (1,), 1: (2,)}, {0: [[{PathClass("p", 1, 2, 0, 7): 1}]]})


def test_chain_map_entries_checked():
    A = star_algebra(2, 1)
    S1, S2 = stalk_complex(A, 1, 0), stalk_complex(A, 2, 0)
    # e_1 is a basis class, but not of the block from edge 1 to edge 2
    with pytest.raises(ValueError, match="not in block"):
        ChainMap(S1, S2, 0, {0: [[{idempotent(1): 1}]]})
    with pytest.raises(ValueError, match="not a basis class"):
        ChainMap(S1, S2, 0, {0: [[{PathClass("p", 1, 2, 0, 7): 1}]]})
    with pytest.raises(ValueError, match="wrong shape"):
        ChainMap(S1, S2, 0, {0: [[{}, {}]]})
    with pytest.raises(ValueError, match="wrong shape"):
        ChainMap(S1, S2, 0, {1: [[{}]]})
    f = ChainMap(S1, S2, 0, {0: [[{A.star_path(1, 1): 1}]]})
    assert f.is_chain_map() and not is_null_homotopic(ChainMapSpace(S1, S2, 0), f)


def test_direct_sum_mixed_algebras_rejected():
    A, B = star_algebra(2, 1), star_algebra(3, 1)
    with pytest.raises(ValueError):
        direct_sum([stalk_complex(A, 1, 0), stalk_complex(B, 1, 0)])


def test_direct_sum_order_invariance():
    A = star_algebra(3, 1)
    parts = [pres(A, 1, 1), stalk_complex(A, 2, 0), stalk_complex(A, 3, 0)]
    T1 = direct_sum(parts)
    T2 = direct_sum(parts[::-1])
    probe = pres(A, 3, 2)
    for s in (-1, 0, 1):
        assert hom_complex_dim(T1, probe, s, direct=True) == hom_complex_dim(
            T2, probe, s, direct=True
        )


def test_parts_travel_with_the_sum():
    A = star_algebra(3, 1)
    U, V, W = pres(A, 1, 2), stalk_complex(A, 2, 0), stalk_complex(A, 3, 1)
    T = direct_sum([direct_sum([U, V]), W])
    assert T.parts == (U, V, W) and U.parts == (U,)
    assert [l.key for l in T.labels] == [l.key for X in (U, V, W) for l in X.labels]
    # Homs are cached by the parts, which are interned: a rebuilt stalk is V
    assert stalk_complex(A, 2, 0) is V and V is not W
    hom_complex_dim(T, T, 0)
    assert (U, V, 0) in A.hom_cache


def _nonprojective_presentations(A, count):
    """The minimal presentations of the first count nonprojective
    indecomposables of A, as enumerate_indecomposables lists them."""
    modules = [M for label, M in enumerate_indecomposables(A) if label[0] != "projective"]
    return [min_proj_presentation(M) for M in modules[:count]]


def test_unnamed_labels_do_not_depend_on_the_order_they_are_asked():
    """Over a non-star tree the presentations have no name, and a label is
    read off the content alone: on two fresh algebras whose labels are
    asked in opposite orders, the same parts and sums get the same keys."""
    tree = next(t for t in all_brauer_trees(4, 1) if not t.is_star())
    forward = _nonprojective_presentations(build_tree_algebra(tree), 4)
    backward = _nonprojective_presentations(build_tree_algebra(tree), 4)
    assert all(P.name is None for P in forward + backward)
    first = [P.summand.key for P in forward]
    assert [P.summand.key for P in reversed(backward)] == first[::-1]
    assert len(set(first)) == 4
    assert complex_label_key(direct_sum(forward[:2])) == complex_label_key(direct_sum(backward[:2]))


def test_unnamed_labels_read_coefficients_mod_p():
    """An unnamed part keys its differential by coefficients mod p: the
    entry p + 1 gives the key of the entry 1, and the entry 2 another."""
    A = star_algebra(3, 1)
    p = A.prime

    def built(c):
        return ProjComplex(A, {0: (1,), 1: (2,)}, {0: [[{A.star_path(1, 1): c}]]})

    one, again, two = built(1), built(p + 1), built(2)
    assert one.name is None and one is not again
    assert again.summand.key == one.summand.key != two.summand.key
    assert one.summand.display() == again.summand.display() == "P_2->P_1"


def test_rebuilt_parts_give_the_hom_dimensions_of_the_interned_ones():
    """Parts rebuilt outside their constructors are other objects, so their
    pair dimensions are computed again, not shared; the Hom dimensions of a
    sum of rebuilt catalogue members equal those of the interned members,
    both through the cache and directly."""
    for n, k in ((3, 1), (3, 2), (4, 1)):
        A = star_algebra(n, k)
        parts = tilting_catalog(A)[::2]
        copies = [ProjComplex(A, P.comps, P.diffs, name=P.name) for P in parts]
        assert all(C is not P and C.summand == P.summand for C, P in zip(copies, parts))
        T, U = direct_sum(parts), direct_sum(copies[::-1])
        for s in (-1, 0, 1):
            want = hom_complex_dim(T, T, s)
            assert hom_complex_dim(U, U, s) == want == hom_complex_dim(U, U, s, direct=True)
            assert hom_complex_dim(T, U, s) == want == hom_complex_dim(U, T, s)
        # one pair at a time, shift 1 cached before -1: Hom(C, P[-1]) is
        # Hom(P, C[1]), not Hom(C, P[1])
        for s in (1, -1):
            for C in copies:
                for P in parts:
                    assert hom_complex_dim(C, P, s) == hom_complex_dim(C, P, s, direct=True)
        assert (copies[0], copies[0], 0) in A.hom_cache and (parts[0], parts[0], 0) in A.hom_cache


def _dense_direct_sum(parts):
    """direct_sum as a dense reference: a grid of entries per degree,
    filled part by part through diff() and slots()."""
    A = parts[0].algebra
    degrees = sorted({d for P in parts for d in P.comps})
    comps = {d: sum((list(P.slots(d)) for P in parts), []) for d in degrees}
    diffs = {}
    for d in degrees:
        if all(d not in P.diffs for P in parts):
            continue
        mat = [[{} for _ in comps[d]] for _ in comps.get(d + 1, [])]
        roff = coff = 0
        for P in parts:
            pd = P.diff(d)
            for h in range(len(P.slots(d + 1))):
                for g in range(len(P.slots(d))):
                    mat[roff + h][coff + g] = pd[h][g]
            roff += len(P.slots(d + 1))
            coff += len(P.slots(d))
        diffs[d] = mat
    out = ProjComplex(A, comps, diffs)
    out.parts = tuple(q for P in parts for q in P.parts)
    return out


def test_stalks_are_interned_per_algebra():
    """One stalk per (edge, degree) per algebra; algebras share none, and an
    unknown edge is still refused."""
    A, B = star_algebra(3, 1), star_algebra(3, 1)
    for e in A.edges:
        for d in (-1, 0, 1):
            S = stalk_complex(A, e, d)
            assert stalk_complex(A, e, d) is S
            assert S.comps == {d: (e,)} and S.summand.key == ("stalk", e, d)
            assert stalk_complex(B, e, d) is not S and stalk_complex(B, e, d).algebra is B
    assert stalk_complex(A, 2) is stalk_complex(A, 2, 0)
    with pytest.raises(ValueError, match="unknown edge 4"):
        stalk_complex(A, 4, 0)


@lru_cache(maxsize=None)
def _summand_pool():
    """The catalogue of star(4, 2) and every stalk in degrees -1 to 2."""
    A = star_algebra(4, 2)
    stalks = [stalk_complex(A, e, d) for e in A.edges for d in range(-1, 3)]
    return tilting_catalog(A) + stalks


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_direct_sum_matches_dense_reference(data):
    parts = data.draw(st.lists(st.sampled_from(_summand_pool()), min_size=1, max_size=5))
    if len(parts) > 2 and data.draw(st.booleans()):
        parts = [direct_sum(parts[:2]), *parts[2:]]  # a sum as a part
    got, want = direct_sum(parts), _dense_direct_sum(parts)
    assert got.comps == want.comps
    assert got.diffs == want.diffs
    assert got.parts == want.parts
    assert got.summand.key == want.summand.key
    own = {id(x) for P in parts for mat in P.diffs.values() for row in mat for x in row}
    assert not any(id(x) in own for mat in got.diffs.values() for row in mat for x in row)
    # the sum holds its grid as built, one dict per cell; editing it leaves
    # every part as it was
    cells = [x for mat in got.diffs.values() for row in mat for x in row]
    assert len({id(x) for x in cells}) == len(cells)
    assert all(isinstance(slots, tuple) for slots in got.comps.values())
    before = [repr(P.diffs) for P in parts]
    for x in cells:
        x["edited"] = 1
    assert [repr(P.diffs) for P in parts] == before


@lru_cache(maxsize=None)
def _catalog(n, k):
    return tilting_catalog(star_algebra(n, k))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(n, k) for n in range(1, 5) for k in (1, 2)]), st.data())
def test_direct_sums_of_catalogue_members(nk, data):
    """A sum of catalogue members, in any order and with repeats: its
    whole-complex Hom dimensions equal the cached sums over pairs of parts
    at s = -1, 0 and 1, each part's block of every differential is that
    part's own differential, and every entry outside the part blocks is
    {}."""
    parts = data.draw(st.lists(st.sampled_from(_catalog(*nk)), min_size=1, max_size=5))
    T = direct_sum(parts)
    for s in (-1, 0, 1):
        assert hom_complex_dim(T, T, s, direct=True) == hom_complex_dim(T, T, s)
    # owner[d][slot]: (part, slot of the part) of each slot of T in degree d
    owner = {}
    for k, P in enumerate(parts):
        for d, slots in P.comps.items():
            owner.setdefault(d, []).extend((k, i) for i in range(len(slots)))
    assert {d: len(o) for d, o in owner.items()} == {d: len(c) for d, c in T.comps.items()}
    for d in range(T.min_degree - 1, T.max_degree + 1):
        grid = T.diff(d)
        for h, (k, hh) in enumerate(owner.get(d + 1, ())):
            for g, (l, gg) in enumerate(owner.get(d, ())):
                assert grid[h][g] == (parts[k].diff(d)[hh][gg] if k == l else {})


def test_spaces_build_one_layout_at_their_own_shift(monkeypatch):
    """A space numbers its unknowns, the maps Q -> R[s], by the layout at
    s, and tells the rows of both matrices apart by their blocks at the
    other shift, which it lays out nowhere: at s = 0, where both C and N
    have rows, at s = 1, where only N has, and at s = 2, where neither has,
    it builds the one layout at s."""
    A = star_algebra(4, 1)
    T = covering_to_complex(enumerate_coverings(4)[-1], A)
    shifts = []
    block_offsets = complexes._block_offsets

    def recording(A, Q, R, shift):
        shifts.append(shift)
        return block_offsets(A, Q, R, shift)

    monkeypatch.setattr(complexes, "_block_offsets", recording)
    for s, rows in ((0, (True, True)), (1, (False, True)), (2, (False, False))):
        shifts.clear()
        sp = ChainMapSpace(T, T, s)
        assert shifts == [s]
        assert (bool(sp._chain_pivots), bool(sp._null_pivots)) == rows
    assert ChainMapSpace(T, T, 1).dim == 0


def test_algebra_complex_and_shift():
    A = star_algebra(2, 2)
    TA = algebra_complex(A, 0)
    assert TA.comps == {0: (1, 2)}
    shifted = algebra_complex(A, 1)
    assert shifted.comps == {1: (1, 2)}
    assert [l.key[2] for l in shifted.labels] == [1, 1]


def test_chain_map_space_consistency():
    A = star_algebra(3, 1)
    Q, R = pres(A, 1, 2), pres(A, 2, 2)
    sp = ChainMapSpace(Q, R, 0)
    assert sp.dim == hom_complex_dim(Q, R, 0, direct=True)
    for f in basis_maps(sp):
        assert f.is_chain_map()
        assert not is_null_homotopic(sp, f)
    ident = identity_chain_map(Q)
    assert ident.is_chain_map()
    sp_self = ChainMapSpace(Q, Q, 0)
    assert not is_null_homotopic(sp_self, ident)


def _unit_maps(Q, R, t):
    """Every degree-wise map Q -> R[t] whose one nonzero entry is one basis
    path class, built from the blocks of the algebra."""
    A = Q.algebra
    for d in Q.degrees():
        src, tgt = Q.slots(d), R.slots(d + t)
        for j, b in enumerate(tgt):
            for i, a in enumerate(src):
                for pc in A.blocks[(a, b)]:
                    mat = [[{} for _ in src] for _ in tgt]
                    mat[j][i] = {pc: 1}
                    yield ChainMap(Q, R, t, {d: mat})


def _boundary(h):
    """d_Q h + h d_R: Q -> R[t+1] for h: Q -> R[t], multiplied out with
    _product, the way ChainMap.is_chain_map multiplies."""
    Q, R, t = h.Q, h.R, h.s
    A, p = Q.algebra, Q.algebra.prime
    comps = {}
    for d in Q.degrees():
        width = len(Q.slots(d))
        terms = (_product(A, Q.diff(d), h.entry(d + 1), width),
                 _product(A, h.entry(d), R.diff(d + t), width))
        mat = [[{} for _ in range(width)] for _ in R.slots(d + t + 1)]
        for term in terms:
            for row, term_row in zip(mat, term):
                for entry, x in zip(row, term_row):
                    for pc, c in x.items():
                        entry[pc] = (entry.get(pc, 0) + c) % p
        comps[d] = mat
    return ChainMap(Q, R, t + 1, comps)


@pytest.mark.parametrize("n, k", [(3, 1), (4, 1), (3, 2)])
def test_null_homotopies_of_three_term_complexes(n, k):
    """The null-homotopic maps Q -> R[s] are the images d_Q h + h d_R of
    the maps h: Q -> R[s-1].  X = P_a -> P_b -> P_c has two consecutive
    paths of length nk - 1 as differentials (their product is zero), so
    the pairs reach ChainMapSpace with three-term complexes on either
    side; the images of the unit maps h must span exactly the rows of
    null_basis."""
    A = star_algebra(n, k)
    first = A.star_path(1, n * k - 1)
    second = A.star_path(first.end, n * k - 1)
    X = ProjComplex(A, {0: (1,), 1: (first.end,), 2: (second.end,)},
                    {0: [[{first: 1}]], 1: [[{second: 1}]]})
    P = pres(A, 2, 2)
    complexes = [X, P, stalk_complex(A, 3 % n + 1, 1), direct_sum([X, P])]
    for Q in complexes:
        for R in complexes:
            for s in range(-3, 4):
                sp = ChainMapSpace(Q, R, s)
                images = [column(map_vector(_boundary(h), sp.offsets), sp.total)
                          for h in _unit_maps(Q, R, s - 1)]
                images = np.array(images, dtype=np.int64).reshape(len(images), sp.total)
                assert linalg.rank(images, A.prime) == sp.null_rank
                both = np.concatenate([images, dense(sp.null_basis)])
                assert linalg.rank(both, A.prime) == sp.null_rank


def test_containment_check_refuses_a_perturbed_null_row(monkeypatch):
    """ChainMapSpace checks C N^T = 0, i.e. that the null-homotopic maps
    are chain maps.  For the three-term X against itself at s = 0 both C
    and N have rows; adding 1 to the first row of N at a column where the
    first row of C is nonzero changes that entry of C N^T by a nonzero
    amount, and construction must refuse the space."""
    A = star_algebra(3, 1)
    first = A.star_path(1, 2)
    second = A.star_path(first.end, 2)
    X = ProjComplex(A, {0: (1,), 1: (first.end,), 2: (second.end,)},
                    {0: [[{first: 1}]], 1: [[{second: 1}]]})
    s = 0
    ChainMapSpace(X, X, s)  # unperturbed, the check passes
    original = complexes._hom_differential
    chain_rows = []

    def perturbed(A, Q, R, t, *args, **kwargs):
        m = original(A, Q, R, t, *args, **kwargs)
        if t == s:
            chain_rows.extend(m.rows)
        elif t == s - 1:
            assert chain_rows and m.rows
            j = min(chain_rows[0])
            row = dict(m.rows[0])
            row[j] = (row.get(j, 0) + 1) % A.prime
            m = linalg.SparseRows([{c: v for c, v in row.items() if v}, *m.rows[1:]], m.cols)
        return m

    monkeypatch.setattr(complexes, "_hom_differential", perturbed)
    with pytest.raises(AssertionError, match="null-homotopic maps escaped"):
        ChainMapSpace(X, X, s)


def _independent_rows(rows, basis, p):
    """The rows, in order, that are independent of the linearly independent
    rows `basis` and of the rows picked before them."""
    picked = []
    for row in rows:
        if linalg.rank(np.array(basis + picked + [row], dtype=np.int64), p) > len(basis) + len(picked):
            picked.append(row)
    return picked


@pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (4, 1)])
def test_lazy_reduction_changes_nothing(n, k, monkeypatch):
    """ChainMapSpace eliminates forward only and back-substitutes on the
    first read of a basis.  Over pairs of catalogue members at shifts -2 to
    2, dim, null_rank, null_basis, chain_basis and the quotient
    representatives equal those computed eagerly with linalg.rref on the
    rows the space built; building a space back-substitutes nothing, and
    reading null_basis twice back-substitutes once."""
    A = star_algebra(n, k)
    p = A.prime
    built, reduced = [], []
    hom_differential, back_substitute = complexes._hom_differential, linalg.back_substitute

    def recording_differential(A, Q, R, t, *args, **kwargs):
        m = hom_differential(A, Q, R, t, *args, **kwargs)
        built.append((t, linalg.SparseRows([dict(r) for r in m.rows], m.cols)))
        return m

    def counting_back_substitute(ech, pivots, p):
        reduced.append(ech.shape)
        return back_substitute(ech, pivots, p)

    monkeypatch.setattr(complexes, "_hom_differential", recording_differential)
    monkeypatch.setattr(linalg, "back_substitute", counting_back_substitute)
    catalog = tilting_catalog(A)
    for Q in catalog:
        for R in catalog:
            for s in range(-2, 3):
                built.clear()
                reduced.clear()
                sp = ChainMapSpace(Q, R, s)
                assert reduced == []
                rows = dict(built)
                empty = linalg.SparseRows([], sp.total)
                (c_red, c_piv), (n_red, n_piv) = (linalg.rref(rows.get(t, empty), p)
                                                  for t in (s, s - 1))
                null_basis = dense(n_red)[: len(n_piv)]
                chain_basis = kernel_from_rref(dense(c_red), c_piv, p)
                reps = _independent_rows(chain_basis.tolist(), null_basis.tolist(), p)
                reduced.clear()  # the reference rrefs back-substitute too
                assert sp.null_rank == len(n_piv)
                assert sp.dim == sp.total - len(c_piv) - len(n_piv) == len(reps)
                assert dense(sp.null_basis).tolist() == null_basis.tolist()
                assert sp.null_basis is sp.null_basis and len(reduced) == 1
                assert dense(sp.chain_basis).tolist() == chain_basis.tolist()
                assert sp.chain_basis is sp.chain_basis and len(reduced) == 2
                assert dense(sp._reduction_data()[1]).tolist() == reps


def dense_reduction(sp, chain_rows, null_rows, p):
    """The quotient reduction of a space, made eagerly and densely from the
    rows of C and N as built: the rref of [N_c^T | I] in the coordinates
    y = v[free] of the chain basis picks the representatives (its pivot
    columns in I), and its right block gives F.  Returns free, the
    representatives and [chain_basis | F^T]."""
    (c_red, c_piv), (n_red, n_piv) = (linalg.rref(rows, p) for rows in (chain_rows, null_rows))
    chain_basis = kernel_from_rref(dense(c_red), c_piv, p)
    free = [c for c in range(sp.total) if c not in set(c_piv)]
    null_c = dense(n_red)[: len(n_piv)][:, free]
    k, c = null_c.shape
    aug = np.concatenate([null_c.T, np.eye(c, dtype=object)], axis=1)
    red, pivots = linalg.rref(aug, p) if c else (aug, [])
    red = dense(red) if c else red
    chosen = [j - k for j in pivots[k:]]
    return free, chain_basis[chosen], np.concatenate([chain_basis, red[k:, k:].T], axis=1)


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
@pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (4, 1)])
def test_sparse_reduction_equals_dense_reference(n, k, p, monkeypatch):
    """Over every ordered pair of catalogue members at shifts -2 to 2, the
    reduction ChainMapSpace reads off its sparse rows gives the free
    columns, representatives and [chain_basis | F^T] of the dense
    reference, and quotient coordinates that undo [chain_basis | F^T]:
    the chain-basis rows, plus any null rows, have the rows of F^T as
    their coordinates."""
    A = star_algebra(n, k, p)
    built = []
    hom_differential = complexes._hom_differential

    def recording_differential(A, Q, R, t, *args, **kwargs):
        m = hom_differential(A, Q, R, t, *args, **kwargs)
        built.append((t, linalg.SparseRows([dict(r) for r in m.rows], m.cols)))
        return m

    monkeypatch.setattr(complexes, "_hom_differential", recording_differential)
    catalog = tilting_catalog(A)
    spaces = 0
    for Q in catalog:
        for R in catalog:
            for s in range(-2, 3):
                built.clear()
                sp = ChainMapSpace(Q, R, s)
                rows = dict(built)
                empty = linalg.SparseRows([], sp.total)
                free, reps, both = dense_reduction(sp, rows.get(s, empty), rows.get(s - 1, empty), p)
                got_free, got_reps, got_both = sp._reduction_data()
                assert got_free == free
                assert dense(got_reps).tolist() == reps.tolist()
                assert dense(got_both).tolist() == both.tolist()
                f_t = both[:, sp.total:]
                vecs = (dense(sp.chain_basis) + dense(sp.null_basis).sum(axis=0)) % p
                coords = sp.quotient_coords([as_dict(v) for v in vecs])
                assert [column(c, sp.dim).tolist() for c in coords] == f_t.tolist()
                spaces += sp.dim > 0 and sp.null_rank > 0
    assert spaces > 0


def test_euler_pairing_signs():
    A = star_algebra(4, 1)
    # disjoint intervals pair to zero
    assert euler_pairing(pres(A, 1, 1), pres(A, 3, 1)) == 0
    assert euler_pairing(stalk_complex(A, 1, 0), stalk_complex(A, 1, 0)) == 2
    # stalk against a presentation: 1 exactly at the lower-term edge
    assert euler_pairing(stalk_complex(A, 1, 0), pres(A, 3, 2)) == 1
    assert euler_pairing(stalk_complex(A, 2, 0), pres(A, 3, 2)) == 0


def euler_pairing_by_slots(Q, R):
    """The alternating sum of module Hom dimensions between the components,
    slot by slot: the reference for the K_0 form of euler_pairing."""
    A = Q.algebra
    total = 0
    for r, qs in Q.comps.items():
        for s, rs in R.comps.items():
            sign = -1 if (r - s) % 2 else 1
            total += sign * sum(len(A.blocks[(a, b)]) for a in qs for b in rs)
    return total


def test_euler_pairing_equals_slot_sum():
    """k0(Q) C k0(R) equals the slot-by-slot sum on every ordered pair of
    catalogue members of three stars, on sums of them, and on the
    realizations of every 4-edge tree of multiplicity 2."""
    cases = []
    for n, k in [(3, 1), (3, 2), (4, 1)]:
        catalog = tilting_catalog(star_algebra(n, k))
        cases.append(catalog + [direct_sum(catalog[:3]), direct_sum(catalog[-2:])])
    A = star_algebra(4, 2)
    cases.append([realize(tree, A) for tree in all_brauer_trees(4, 2)])
    for complexes_ in cases:
        for Q in complexes_:
            for R in complexes_:
                assert euler_pairing(Q, R) == euler_pairing_by_slots(Q, R)


# -- properties over the summands of tilting complexes --------------------------------

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@lru_cache(maxsize=None)
def covering_summands(n, k, prime=DEFAULT_PRIME):
    """The distinct summands of the complexes of all coverings of the n-gon
    (the trivial one included) over star(n, k)."""
    A = star_algebra(n, k, prime)
    found = {}
    for cov in [*enumerate_coverings(n), trivial_covering(n)]:
        T = covering_to_complex(cov, A)
        for label, part in zip(T.labels, summand_complexes(T)):
            found.setdefault(label.key, part)
    return [found[key] for key in sorted(found, key=repr)]


@PROPERTY
@given(st.sampled_from([(n, k) for n in range(1, 5) for k in (1, 2)]), st.data())
def test_chain_map_space_properties(nk, data):
    parts = covering_summands(*nk)
    U, V = data.draw(st.sampled_from(parts)), data.draw(st.sampled_from(parts))
    s = data.draw(st.sampled_from((-1, 0, 1)))
    Q = direct_sum([U, V])
    assert hom_complex_dim(Q, Q, s, direct=True) == hom_complex_dim(Q, Q, s)
    sp = ChainMapSpace(U, V, s)
    maps = basis_maps(sp)
    assert len(maps) == sp.dim == hom_complex_dim(U, V, s)
    for f in maps:
        assert f.is_chain_map()
        assert not is_null_homotopic(sp, f)
    for row in sp.null_basis.rows:
        f = map_from_vector(sp, row)
        assert f.is_chain_map()
        assert is_null_homotopic(sp, f)
    # quotient coordinates: the coefficients of the basis maps, whatever null
    # map is added; a vector that is not a chain map is refused, also by a
    # space of dimension 0
    p = U.algebra.prime
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=sp.dim, max_size=sp.dim))
    null_sum = dense(sp.null_basis).sum(axis=0) % p
    vec = sum((c * column(map_vector(f, sp.offsets), sp.total) for c, f in zip(coeffs, maps)), null_sum)
    assert column(sp.quotient_coords([as_dict(vec % p)])[0], sp.dim).tolist() == coeffs
    units = [{j: 1} for j in range(sp.total)]
    outside = [e for e in units if not map_from_vector(sp, e).is_chain_map()]
    if outside:
        with pytest.raises(ValueError, match="not a chain map"):
            sp.quotient_coords([outside[0]])
        with pytest.raises(ValueError, match="not a chain map"):
            sp.quotient_coords([as_dict(null_sum), outside[-1]])


@PROPERTY
@given(st.sampled_from([(n, k) for n in range(1, 5) for k in (1, 2)]),
       st.sampled_from((2, 3, 32003, 2**31 - 1)), st.data())
def test_chain_map_compose(nk, p, data):
    """The structure tensor of End, the product in quotient coordinates,
    against composites multiplied out entry by entry with _product: its
    entries are the classes of the composites of basis classes, the
    identity is a two-sided unit of its products, they are associative,
    and every product lifts to a chain map.  U, V and W are sums of one or
    two summands rebuilt as one part, so a part can have two slots in a
    degree."""
    A = star_algebra(*nk, p)
    summands = st.lists(st.sampled_from(covering_summands(*nk, p)), min_size=1, max_size=2)
    U, V, W = (ProjComplex(A, S.comps, S.diffs)
               for S in (direct_sum(data.draw(summands)) for _ in range(3)))
    E = EndoAlgebra(direct_sum([U, V, W]))
    assert E.parts == [U, V, W]
    u, v, w, x = (data.draw(st.integers(0, 2)) for _ in range(4))

    def space(a, b):
        # the pair's space built alone: its classes are those of block (a, b)
        return ChainMapSpace(E.parts[a], E.parts[b], 0)

    target = space(u, w)
    width = E.dim(v, w)
    block = E.products((u, v, w), linalg.identity(E.dim(u, v)).rows,
                       linalg.identity(width).rows)
    for i, f in enumerate(basis_maps(space(u, v))):
        for j, g in enumerate(basis_maps(space(v, w))):
            comps = {d: _product(A, f.entry(d), g.entry(d), len(E.parts[u].slots(d)))
                     for d in E.parts[u].degrees() if E.parts[w].slots(d)}
            composite = target.quotient_coords([map_vector(ChainMap(f.Q, g.R, 0, comps),
                                                           target.offsets)])[0]
            want = column(composite, target.dim).tolist()
            assert column(E.tensor[(u, v, w)].rows[i * width + j], target.dim).tolist() == want
            assert column(block[i * width + j], target.dim).tolist() == want

    def some_class(a, b):
        dim = E.dim(a, b)
        return as_dict(data.draw(st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim)))

    def compose(s, t, r, y, z):
        return E.products((s, t, r), [y], [z])[0]

    a, b, c = some_class(u, v), some_class(v, w), some_class(w, x)
    ident_u, ident_v = (E.coords(t, t, identity_chain_map(E.parts[t])) for t in (u, v))
    assert compose(u, u, v, ident_u, a) == a
    assert compose(u, v, v, a, ident_v) == a
    ab, bc = compose(u, v, w, a, b), compose(v, w, x, b, c)
    assert compose(u, w, x, ab, c) == compose(u, v, x, a, bc)
    for (s, t), coords in (((u, w), ab), ((v, x), bc)):
        sp = space(s, t)
        lift = as_dict(column(coords, sp.dim) @ dense(sp._reduction_data()[1]) % p)
        assert map_from_vector(sp, lift).is_chain_map()
        assert sp.quotient_coords([lift])[0] == coords
