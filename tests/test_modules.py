import sys
from contextlib import suppress
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauertilt import linalg, modules
from brauertilt.algebra import DEFAULT_PRIME, build_tree_algebra, star_algebra
from brauertilt.complexes import stalk_complex
from brauertilt.modules import (
    ModuleMap,
    Representation,
    UniserialSpec,
    enumerate_indecomposables,
    enumerate_strings,
    has_projective_summand,
    hom_basis,
    hom_dim,
    is_isomorphic,
    min_proj_presentation,
    projective_rep,
    second_syzygy,
    simple_rep,
    string_rep,
    projective_cover,
    syzygy,
    top_and_socle,
    uniserial_rep,
)
from brauertilt.tilting import module_partial_tilting_test
from brauertilt.trees import BrauerTree, all_brauer_trees

from dense_reference import column, dense
from reference import (
    check_relations,
    cokernel_rep,
    is_minimal,
    is_module_map,
    named_presentation,
    nullspace,
    projective_socle_vector,
    quotient_representation,
    reduced_spans,
    socle_quotient_rep,
    solve,
    sub_representation,
)


def test_projective_rep_shapes():
    A = star_algebra(2, 1)
    P1 = projective_rep(A, 1)
    check_relations(P1)
    assert P1.dims == (2, 1)
    top, soc = top_and_socle(P1)
    assert top == (1, 0) and soc == (1, 0)
    A11 = star_algebra(1, 1)
    assert projective_rep(A11, 1).dims == (2,)


def test_uniserial_factors_descend():
    A = star_algebra(4, 1)
    U = uniserial_rep(A, UniserialSpec(1, 2))
    check_relations(U)
    assert U.dims == (1, 0, 0, 1)
    top, soc = top_and_socle(U)
    assert top == (1, 0, 0, 0) and soc == (0, 0, 0, 1)
    # full-length quotient is the projective
    P = uniserial_rep(A, UniserialSpec(1, 5))
    assert is_isomorphic(P, projective_rep(A, 1))
    assert is_isomorphic(uniserial_rep(A, UniserialSpec(1, 1)), simple_rep(A, 1))
    with pytest.raises(ValueError):
        uniserial_rep(A, UniserialSpec(1, 6))


def test_syzygy_and_presentations():
    A = star_algebra(2, 1)
    S1 = simple_rep(A, 1)
    assert is_isomorphic(syzygy(S1), uniserial_rep(A, UniserialSpec(2, 2)))
    with pytest.raises(ValueError):
        syzygy(projective_rep(A, 1))
    T = min_proj_presentation(S1)
    assert T.comps == {0: (2,), 1: (1,)}
    assert is_minimal(T)
    A41 = star_algebra(4, 1)
    T = min_proj_presentation(simple_rep(A41, 1))
    assert T.comps == {0: (4,), 1: (1,)}


def test_second_syzygy_shift_formula():
    for n, k in [(2, 1), (3, 1), (4, 2), (5, 2)]:
        A = star_algebra(n, k)
        for top in A.edges:
            for l in range(1, n * k + 1):
                M = uniserial_rep(A, UniserialSpec(top, l))
                expected = uniserial_rep(
                    A, UniserialSpec((top - 2) % n + 1, l)
                )
                assert is_isomorphic(second_syzygy(M), expected)


def test_second_syzygy_checks_for_projective_summands_once(monkeypatch):
    """Only M is checked for a projective summand: its syzygy has none
    (the algebra is self-injective), and the outer step reads the memo."""
    A = star_algebra(3, 1)
    M = uniserial_rep(A, UniserialSpec(1, 2))
    calls = []
    original = modules.has_projective_summand
    monkeypatch.setattr(modules, "has_projective_summand", lambda X: calls.append(X) or original(X))
    assert is_isomorphic(second_syzygy(M), uniserial_rep(A, UniserialSpec(3, 2)))
    assert calls == [M]


def test_presentation_cokernel_is_the_module():
    for A in [star_algebra(3, 1), star_algebra(2, 2)]:
        for label, M in enumerate_indecomposables(A):
            if label[0] == "projective":
                continue
            C = cokernel_rep(min_proj_presentation(M))
            assert is_isomorphic(C, M)


def test_hom_dims():
    A = star_algebra(3, 2)
    assert hom_dim(simple_rep(A, 1), simple_rep(A, 1)) == 1
    assert hom_dim(simple_rep(A, 1), simple_rep(A, 2)) == 0
    assert hom_dim(projective_rep(A, 1), projective_rep(A, 2)) == 2
    # field independence of a sample hom computation
    dims = []
    for p in (2, 3, 32003):
        Ap = star_algebra(3, 2, p)
        M = uniserial_rep(Ap, UniserialSpec(1, 4))
        N = uniserial_rep(Ap, UniserialSpec(2, 3))
        dims.append(hom_dim(M, N))
    assert dims[0] == dims[1] == dims[2]


def test_hom_against_component_dimension():
    # Hom(P_i, M) is the i-component of M
    A = star_algebra(4, 1)
    M = uniserial_rep(A, UniserialSpec(2, 3))
    for i in A.edges:
        assert hom_dim(projective_rep(A, i), M) == M.dims[A.eidx[i]]


def test_projective_summand_detection():
    A = star_algebra(2, 1)
    assert has_projective_summand(projective_rep(A, 1))
    assert not has_projective_summand(simple_rep(A, 1))
    PS, _ = socle_quotient_rep(A, 1)
    assert not has_projective_summand(PS)


def test_enumeration_counts():
    for n, k in [(2, 1), (1, 2), (3, 2)]:
        A = star_algebra(n, k)
        items = enumerate_indecomposables(A)
        nonproj = [l for l, _ in items if l[0] != "projective"]
        assert len(nonproj) == n * n * k
        assert len(items) == n * n * k + n
    # pairwise nonisomorphic
    A = star_algebra(2, 1)
    reps = [M for _, M in enumerate_indecomposables(A)]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not is_isomorphic(reps[i], reps[j])


@pytest.mark.parametrize("p", [2, 3])
def test_isomorphism_of_semisimple_modules_at_small_primes(p):
    """Every semisimple module with multiplicities <= 3 over star(n, 1),
    n = 2..4, is isomorphic to itself; no hom basis member of S_1^3 + S_2
    is invertible, and at p = 2 and 3 random combinations of them missed
    an isomorphism for about a third of these modules."""
    A = star_algebra(2, 1, 2)
    M = Representation(A, [3, 1], {})
    assert not any(f.is_isomorphism() for f in hom_basis(M, M))
    assert is_isomorphic(M, M)
    for n in (2, 3, 4):
        A = star_algebra(n, 1, p)
        for mult in product(range(4), repeat=n):
            M = Representation(A, mult, {})
            assert is_isomorphic(M, M)


def test_isomorphism_tells_apart_modules_of_equal_dimensions():
    """The uniserial with factors (2, 1) and S_1 + S_2 over star(2, 1)
    have the same dimensions and no isomorphism; Hom(S_2, -) tells them
    apart."""
    A = star_algebra(2, 1)
    U = uniserial_rep(A, UniserialSpec(2, 2))
    S = Representation(A, [1, 1], {})
    assert U.dims == S.dims
    assert not is_isomorphic(U, S) and not is_isomorphic(S, U)
    assert is_isomorphic(S, direct_sum_rep(simple_rep(A, 1), simple_rep(A, 2)))


def test_isomorphism_without_a_complete_catalogue_is_refused():
    """Over a tree of multiplicity 2 that is no star the catalogue of
    indecomposables is not known; where the hom basis holds no
    isomorphism the test raises instead of guessing."""
    line = BrauerTree(range(4), {0: (0, 1), 1: (1, 2), 2: (2, 3)},
                      {0: (0,), 1: (0, 1), 2: (1, 2), 3: (2,)}, 0, 2)
    A = build_tree_algebra(line)
    assert is_isomorphic(simple_rep(A, 0), simple_rep(A, 0))
    M = Representation(A, [2, 0, 0], {})
    with pytest.raises(ValueError, match="enumeration supports"):
        is_isomorphic(M, M)


def test_tree_enumeration_strings():
    line = BrauerTree(range(4), {0: (0, 1), 1: (1, 2), 2: (2, 3)},
                      {0: (0,), 1: (0, 1), 2: (1, 2), 3: (2,)}, 0, 1)
    A = build_tree_algebra(line)
    items = enumerate_indecomposables(A)
    nonproj = [l for l, _ in items if l[0] != "projective"]
    assert len(nonproj) == 9
    with pytest.raises(ValueError):
        enumerate_indecomposables(
            build_tree_algebra(
                BrauerTree(range(4), {0: (0, 1), 1: (1, 2), 2: (2, 3)},
                           {0: (0,), 1: (0, 1), 2: (1, 2), 3: (2,)}, 0, 2)
            )
        )


def test_string_walk_validation():
    line = BrauerTree(range(3), {1: (0, 1), 2: (1, 2)}, {0: (1,), 1: (1, 2), 2: (2,)}, 1, 1)
    A = build_tree_algebra(line)
    a = next(ar for ar in A.arrows if ar.start == 1 and ar.end == 2)
    b = next(ar for ar in A.arrows if ar.start == 2 and ar.end == 1)
    M = string_rep(A, [(a, 1)])
    check_relations(M)
    assert M.dims == (1, 1)
    # top sits at the arrow's end under the left-module convention
    top, soc = top_and_socle(M)
    assert top == (0, 1) and soc == (1, 0)
    with pytest.raises(ValueError, match="backtrack"):
        string_rep(A, [(a, 1), (a, -1)])
    with pytest.raises(ValueError, match="zero"):
        string_rep(A, [(a, 1), (b, 1), (a, 1)])
    with pytest.raises(ValueError):
        string_rep(A, [])


def test_zero_module_top_socle_error():
    A = star_algebra(2, 1)
    with pytest.raises(ValueError):
        top_and_socle(Representation(A, [0] * A.n, {}))


# -- spinning, the socle criterion and coordinates at pivot columns -----------------

PRIMES = (2, 3, 32003, 2**31 - 1)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@lru_cache(maxsize=None)
def small_trees():
    return [t for n in range(1, 5) for t in all_brauer_trees(n, 1)]


@lru_cache(maxsize=None)
def cached_star(n, k, p):
    return star_algebra(n, k, p)


@lru_cache(maxsize=None)
def cached_tree_algebra(i, p):
    return build_tree_algebra(small_trees()[i], p)


@lru_cache(maxsize=None)
def cached_strings(i, p):
    return enumerate_strings(cached_tree_algebra(i, p))


def direct_sum_rep(M, N):
    A = M.algebra
    dims = [M.dims[i] + N.dims[i] for i in range(A.n)]
    act = {}
    for ar in A.arrows:
        m, n = dense(M.act[ar]), dense(N.act[ar])
        out = np.zeros((m.shape[0] + n.shape[0], m.shape[1] + n.shape[1]), dtype=np.int64)
        out[: m.shape[0], : m.shape[1]] = m
        out[m.shape[0] :, m.shape[1] :] = n
        act[ar] = out
    return Representation(A, dims, act)


@st.composite
def small_algebras(draw, max_star=(4, 3)):
    """A star with n, k up to max_star or a multiplicity-1 tree with at
    most 4 edges, at one of the test primes, plus its tree index or None."""
    p = draw(st.sampled_from(PRIMES))
    if draw(st.booleans()):
        n = draw(st.integers(1, max_star[0]))
        k = draw(st.integers(1, max_star[1]))
        return cached_star(n, k, p), None
    i = draw(st.integers(0, len(small_trees()) - 1))
    return cached_tree_algebra(i, p), i


@st.composite
def small_modules(draw):
    """A uniserial over a star, a string module over a small tree or a
    projective over either."""
    A, tree = draw(small_algebras())
    if draw(st.booleans()):
        return projective_rep(A, draw(st.sampled_from(A.edges)))
    if tree is None:
        nk = A.n * A.tree.multiplicity
        top = draw(st.sampled_from(A.edges))
        return uniserial_rep(A, UniserialSpec(top, draw(st.integers(1, nk))))
    strings = cached_strings(tree, A.prime)
    if not strings:
        return simple_rep(A, draw(st.sampled_from(A.edges)))
    return string_rep(A, draw(st.sampled_from(strings)))


def vectors(draw, length, p):
    """A random vector of the given length, as an {index: value} dict."""
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    return {i: x for i, x in enumerate(draw(st.lists(entry, min_size=length, max_size=length))) if x}


@PROPERTY
@given(small_modules(), st.data())
def test_path_images_equal_path_actions(M, data):
    A = M.algebra
    edge = data.draw(st.sampled_from(A.edges))
    v = vectors(data.draw, M.dims[A.eidx[edge]], A.prime)
    images = M.path_images(edge, v)
    assert set(images) == {q for q in A.basis if q.end == edge}
    for q, img in images.items():
        action = dense(M.path_action(q))
        want = action @ column(v, action.shape[1]) % A.prime
        assert np.array_equal(column(img, action.shape[0]), want)


def has_projective_summand_by_hom(M):
    """The Hom-based test: some map P_e -> M is nonzero on the socle of P_e."""
    A = M.algebra
    for edge in A.edges:
        P = projective_rep(A, edge)
        if any(P.dims[i] > M.dims[i] for i in range(A.n)):
            continue
        zi, zvec = projective_socle_vector(A, edge)
        for f in hom_basis(P, M):
            m = dense(f.mats[zi])
            if (m @ column(zvec, m.shape[1]) % A.prime).any():
                return True
    return False


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(small_algebras(max_star=(3, 2)), st.data())
def test_projective_summand_reads_the_socle_action(algebra, data):
    A, _ = algebra
    items = enumerate_indecomposables(A)
    for label, M in items:
        assert has_projective_summand(M) == has_projective_summand_by_hom(M) == (label[0] == "projective")
        MP = direct_sum_rep(M, projective_rep(A, data.draw(st.sampled_from(A.edges))))
        assert has_projective_summand(MP) and has_projective_summand_by_hom(MP)
        # a sum whose dimensions may fit a projective without containing one
        other_label, N = data.draw(st.sampled_from(items))
        expected = "projective" in (label[0], other_label[0])
        MN = direct_sum_rep(M, N)
        assert has_projective_summand(MN) == has_projective_summand_by_hom(MN) == expected


def sub_representation_by_express(M, spans):
    """The elimination-based construction: coordinates of the arrow images
    in the reduced bases solved for with `solve`."""
    A = M.algebra
    p = A.prime
    bases = []
    for i in range(A.n):
        s = np.asarray(spans[i], dtype=np.int64) % p
        if s.size == 0:
            s = np.zeros((0, M.dims[i]), dtype=np.int64)
        red, piv = linalg.rref(s, p)
        bases.append(dense(red)[: len(piv)])
    dims = [b.shape[0] for b in bases]
    act = {}
    for arrow in A.arrows:
        a, b = A.eidx[arrow.start], A.eidx[arrow.end]
        if dims[b] == 0 or dims[a] == 0:
            act[arrow] = np.zeros((dims[a], dims[b]), dtype=np.int64)
            continue
        images = (dense(M.act[arrow]) @ bases[b].T % p).T
        coords = solve(bases[a].T, images.T, p)
        if coords is None:
            raise ValueError("spans are not stable under the arrow actions")
        act[arrow] = dense(coords)
    sub = Representation(A, dims, act)
    return sub, ModuleMap(sub, M, [bases[i].T for i in range(A.n)])


def generated_spans(draw, M):
    """Spans of the submodule generated by a few random vectors, with
    redundant rows: all images q.v of each generator v."""
    A = M.algebra
    rows = [[] for _ in range(A.n)]
    for _ in range(draw(st.integers(0, 2))):
        edge = draw(st.sampled_from(A.edges))
        for q, img in M.path_images(edge, vectors(draw, M.dims[A.eidx[edge]], A.prime)).items():
            rows[A.eidx[q.start]].append(column(img, M.dims[A.eidx[q.start]]))
    return [np.array(r, dtype=np.int64).reshape(len(r), M.dims[i]) for i, r in enumerate(rows)]


def random_spans(draw, M):
    spans = []
    for d in M.dims:
        rows = [column(vectors(draw, d, M.algebra.prime), d) for _ in range(draw(st.integers(0, 2)))]
        spans.append(np.array(rows, dtype=np.int64).reshape(len(rows), d))
    return spans


@PROPERTY
@given(small_modules(), st.data())
def test_sub_representation_equals_express_version(M, data):
    spans = generated_spans(data.draw, M) if data.draw(st.booleans()) else random_spans(data.draw, M)
    try:
        expected = sub_representation_by_express(M, spans)
    except ValueError:
        expected = None
    if expected is not None and not is_module_map(expected[1]):
        expected = None  # the unchecked empty-target case
    if expected is None:
        with pytest.raises(ValueError, match="not stable"):
            sub_representation(M, spans)
        return
    sub, incl = sub_representation(M, spans)
    assert sub.dims == expected[0].dims
    assert all(np.array_equal(dense(sub.act[ar]), dense(expected[0].act[ar])) for ar in M.algebra.arrows)
    assert all(np.array_equal(dense(x), dense(y)) for x, y in zip(incl.mats, expected[1].mats))
    assert is_module_map(incl)


def test_actions_and_maps_are_read_reduced_and_shape_checked():
    """A Representation reads its actions, and a ModuleMap its matrices,
    as sparse rows, lists or numpy arrays alike, reduced mod p into fresh
    rows, and refuses a wrong shape or columns outside it."""
    A = star_algebra(2, 1, 5)
    arrow = A.arrows[0]
    given = linalg.SparseRows([{0: 6}], 1)
    reps = [Representation(A, (1, 1), {arrow: m}) for m in (given, [[11]], np.array([[-4]]))]
    assert all(M.act[arrow].rows == [{0: 1}] for M in reps)
    assert reps[0].act[arrow] is not given and given.rows == [{0: 6}]
    for bad in (linalg.SparseRows([{1: 1}], 1), [[1, 0]], np.zeros((2, 1), dtype=np.int64)):
        with pytest.raises(ValueError, match="action of"):
            Representation(A, (1, 1), {arrow: bad})
    f = ModuleMap(reps[0], reps[1], [linalg.SparseRows([{0: 5}], 1), [[7]]])
    assert [m.rows for m in f.mats] == [[{}], [{0: 2}]]
    with pytest.raises(ValueError, match="shape mismatch"):
        ModuleMap(reps[0], reps[1], [[[1]], linalg.SparseRows([{3: 1}], 1)])


def test_spans_that_are_not_submodules_are_refused():
    # e_1 spans no submodule of P_1 over star(2, 1): the arrow 2 -> 1
    # sends it into the component at edge 2, where the span is empty
    A = star_algebra(2, 1)
    P = projective_rep(A, 1)
    spans = [np.array([[1, 0]], dtype=np.int64), np.zeros((0, 1), dtype=np.int64)]
    assert P.dims == (2, 1) and A.blocks[(1, 1)][0].kind == "e"
    with pytest.raises(ValueError, match="spans are not stable under the arrow actions"):
        sub_representation(P, spans)
    with pytest.raises(ValueError, match="spans are not stable under the arrow actions"):
        quotient_representation(P, spans)


def counting_rref(monkeypatch):
    """Record (calling function, argument) for every linalg.rref call."""
    calls = []
    original = linalg.rref

    def counting(a, p):
        calls.append((sys._getframe(1).f_code.co_name, a))
        return original(a, p)

    monkeypatch.setattr(linalg, "rref", counting)
    return calls


def test_sub_representation_runs_one_elimination_for_all_spans(monkeypatch):
    """The spans of every edge are reduced by one rref of sparse rows."""
    calls = counting_rref(monkeypatch)
    A = star_algebra(3, 1)
    P = projective_rep(A, 1)
    # the socle alone: one nonempty span
    i, z = projective_socle_vector(A, 1)
    spans = [np.zeros((0, d), dtype=np.int64) for d in P.dims]
    spans[i] = [column(z, P.dims[i])]
    sub, _ = sub_representation(P, spans)
    assert sub.dims == (1, 0, 0) and len(calls) == 1
    # the radical, generated by the arrow 3 -> 1, with a redundant row:
    # three nonempty spans, still one elimination
    calls.clear()
    rad = [[] for _ in A.edges]
    for q, img in P.path_images(3, {0: 1}).items():
        rad[A.eidx[q.start]].append(column(img, P.dims[A.eidx[q.start]]))
    rad[0].append(2 * rad[0][0])
    sub, _ = sub_representation(P, [np.array(r) for r in rad])
    assert sub.dims == (1, 1, 1) and len(calls) == 1
    assert all(name == "reduced_bases" and isinstance(a, linalg.SparseRows)
               for name, a in calls)


# the per-edge dense eliminations the module layer ran before it eliminated
# all edges at once, kept as references


def radical_pivots_by_edge(M):
    A = M.algebra
    out = []
    for edge in A.edges:
        vecs = []
        for arrow in A.arrows:
            if arrow.start == edge:
                m = dense(M.act[arrow])
                vecs.extend(m[:, j] for j in range(m.shape[1]))
        out.append(linalg.rref(np.array(vecs, dtype=np.int64), A.prime)[1] if vecs else [])
    return out


def socle_multiplicities_by_edge(M):
    A = M.algebra
    out = []
    for b_idx, edge in enumerate(A.edges):
        mats = [dense(M.act[ar]) for ar in A.arrows if ar.end == edge]
        if not mats:
            out.append(M.dims[b_idx])
            continue
        out.append(M.dims[b_idx] - linalg.rank(np.concatenate(mats, axis=0), A.prime))
    return tuple(out)


def reduced_kernel_dense(m, p):
    m = dense(m)
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return np.eye(cols, dtype=np.int64), list(range(cols))
    piv = linalg.rref(m[:, ::-1], p)[1]
    taken = {cols - 1 - c for c in piv}
    return (dense(nullspace(m[:, ::-1], p))[::-1, ::-1],
            [c for c in range(cols) if c not in taken])


def reduced_spans_by_edge(M, spans):
    p = M.algebra.prime
    out = []
    for i, d in enumerate(M.dims):
        s = np.asarray(spans[i], dtype=np.int64) % p
        if s.size == 0:
            out.append((np.zeros((0, d), dtype=np.int64), []))
            continue
        red, piv = linalg.rref(s, p)
        out.append((dense(red)[: len(piv)], piv))
    return out


def hom_basis_dense(M, N):
    A = M.algebra
    p = A.prime
    offs = np.cumsum([0] + [N.dims[i] * M.dims[i] for i in range(A.n)])
    total = int(offs[-1])
    if total == 0:
        return []
    rows = []
    for arrow in A.arrows:
        a, b = A.eidx[arrow.start], A.eidx[arrow.end]
        Ma, Na = dense(M.act[arrow]), dense(N.act[arrow])
        for r in range(N.dims[a]):
            for c in range(M.dims[b]):
                row = np.zeros(total, dtype=np.int64)
                for s in range(M.dims[a]):
                    row[offs[a] + r * M.dims[a] + s] = Ma[s, c]
                for s in range(N.dims[b]):
                    row[offs[b] + s * M.dims[b] + c] = (row[offs[b] + s * M.dims[b] + c] - Na[r, s]) % p
                rows.append(row)
    mat = np.array(rows, dtype=np.int64) if rows else np.zeros((0, total), dtype=np.int64)
    return [[vec[offs[i]: offs[i + 1]].reshape(N.dims[i], M.dims[i]) for i in range(A.n)]
            for vec in dense(nullspace(mat, p))]


def same_reduced(got, want):
    return len(got) == len(want) and all(
        piv == wpiv and basis.shape == wbasis.shape and np.array_equal(dense(basis), wbasis)
        for (basis, piv), (wbasis, wpiv) in zip(got, want))


@PROPERTY
@given(small_modules(), st.data())
def test_batched_eliminations_equal_per_edge_references(M, data):
    """Radical pivots, socle, kernel bases and pivots, reduced spans and
    hom_basis from one elimination over all edges equal the per-edge dense
    eliminations, on uniserials, string modules and projectives and on
    their sub and quotient modules."""
    A = M.algebra
    p = A.prime
    spans = generated_spans(data.draw, M) if data.draw(st.booleans()) else random_spans(data.draw, M)
    assert same_reduced(reduced_spans(M, spans), reduced_spans_by_edge(M, spans))
    family = [M]
    with suppress(ValueError):  # random spans need not span a submodule
        family.append(sub_representation(M, spans)[0])
        family.append(quotient_representation(M, spans)[0])
    for X in family:
        assert X.radical_pivots() == radical_pivots_by_edge(X)
        assert X.socle_multiplicities() == socle_multiplicities_by_edge(X)
        if not X.is_zero():
            mats = projective_cover(X)[3].mats
            assert same_reduced(linalg.reduced_kernels(mats, p), [reduced_kernel_dense(m, p) for m in mats])
        for Y in (M, X):
            got = hom_basis(Y, X)
            want = hom_basis_dense(Y, X)
            assert len(got) == len(want) == hom_dim(Y, X)
            for f, g in zip(got, want):
                assert all(np.array_equal(dense(x), y) for x, y in zip(f.mats, g))
                assert is_module_map(f)
            # the kernels of the maps, a second source of matrices
            for f in got[:2]:
                assert same_reduced(linalg.reduced_kernels(f.mats, p),
                                    [reduced_kernel_dense(m, p) for m in f.mats])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3, 5, 32003]), st.data())
def test_reduced_kernel_is_the_rref_of_the_nullspace(p, data):
    """One elimination of the block-diagonal matrix of a few matrices, the
    columns of each block reversed, gives the reduced kernel basis of each
    that rref(nullspace(m)) gives with two eliminations per matrix."""
    entry = st.one_of(st.sampled_from([0, 0, 0, 1, p - 1]), st.integers(0, p - 1))
    mats = []
    for _ in range(data.draw(st.integers(1, 3))):
        rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 7))
        mats.append(np.array(data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                                min_size=rows, max_size=rows)),
                             dtype=np.int64).reshape(rows, cols))
    rows = [linalg.as_rows(m, p) for m in mats]
    for m, (basis, pivots) in zip(mats, linalg.reduced_kernels(rows, p), strict=True):
        red, ref_pivots = linalg.rref(nullspace(m, p), p)
        assert pivots == ref_pivots
        assert basis.shape == (len(pivots), m.shape[1])
        assert dense(basis).tolist() == dense(red)[: len(ref_pivots)].tolist()


def test_syzygy_runs_one_elimination_for_all_components(monkeypatch):
    """The kernel of the cover map costs one rref of sparse rows over all
    components, and its reduced basis is not eliminated again."""
    A = star_algebra(3, 2)
    M = uniserial_rep(A, UniserialSpec(1, 3))
    mats = projective_cover(M)[3].mats
    assert sum(1 for m in mats if m.height and m.cols) > 1
    calls = counting_rref(monkeypatch)
    omega = syzygy(M)
    assert [name for name, _ in calls] == ["reduced_kernels"]
    assert isinstance(calls[0][1], linalg.SparseRows)
    assert sum(omega.dims) == sum(m.shape[1] for m in mats) - sum(M.dims)


def test_uniserial_presentation_runs_few_sparse_eliminations(monkeypatch):
    """The generic presentation of every uniserial over a fresh star(10, 3),
    each the first of its module content, makes at most 6 linalg.rref
    calls, and every call receives sparse rows."""
    A = star_algebra(10, 3)
    calls = counting_rref(monkeypatch)
    for length in range(1, 31):
        M = uniserial_rep(A, UniserialSpec(1 + length % 10, length))
        calls.clear()
        modules.min_proj_presentation(M)
        assert 0 < len(calls) <= 6
        assert all(isinstance(a, linalg.SparseRows) for _, a in calls)


def _stars(p=DEFAULT_PRIME):
    """Every star algebra with n <= 6 edges and multiplicity k <= 3."""
    return [star_algebra(n, k, p) for n in range(1, 7) for k in range(1, 4)]


def _scanned_uniserial(A, spec):
    """(dims, arrow matrices) of a uniserial as a scan of every arrow at
    every depth places its ones: the reference for uniserial_rep's walk."""
    dims, position = [0] * A.n, []
    for t in range(spec.length):
        e = A.eidx[A.star_next(spec.top, -t)]
        position.append(dims[e])
        dims[e] += 1
    act = {}
    for arrow in A.arrows:
        m = np.zeros((dims[A.eidx[arrow.start]], dims[A.eidx[arrow.end]]), dtype=np.int64)
        for t in range(spec.length - 1):
            if (arrow.end, arrow.start) == (A.star_next(spec.top, -t), A.star_next(spec.top, -t - 1)):
                m[position[t + 1], position[t]] = 1
        act[arrow] = m
    return tuple(dims), act


def test_uniserial_rep_walk_matches_the_arrow_scan():
    for A in _stars():
        nk = A.n * A.tree.multiplicity
        for top in A.edges:
            for length in range(1, nk + 2):
                M = uniserial_rep(A, UniserialSpec(top, length))
                dims, act = _scanned_uniserial(A, UniserialSpec(top, length))
                assert M.dims == dims
                assert all(np.array_equal(dense(M.act[a]), act[a]) for a in A.arrows)


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_uniserial_presentation_is_the_generic_presentation(p):
    """The presentation read off the star path is the one the module
    machinery builds, down to its name, label and content (its comps and
    differentials)."""
    for A in _stars(p):
        for top in A.edges:
            for length in range(1, A.n * A.tree.multiplicity + 1):
                T = modules.uniserial_presentation(A, top, length)
                M = uniserial_rep(A, UniserialSpec(top, length))
                G = named_presentation(M, ("uniserial", top, length))
                assert (T.comps, T.diffs, T.name) == (G.comps, G.diffs, G.name)
                assert T.summand.key == G.summand.key
                assert modules.uniserial_presentation(A, top, length) is T


def test_uniserial_presentation_keeps_the_generic_errors():
    """A non-star algebra, an unknown top, a length below 1 or above n k + 1,
    and the projective at n k + 1 are refused with the generic route's
    words, and nothing is memoized."""
    star = star_algebra(3, 2)
    line = build_tree_algebra(next(t for t in all_brauer_trees(3, 1) if not t.is_star()))
    cases = [
        (line, 1, 1, "operation requires the canonical Brauer star algebra"),
        (star, 9, 2, "unknown edge 9"),
        (star, 1, 0, "uniserial length 0 out of range 1..7"),
        (star, 1, 8, "uniserial length 8 out of range 1..7"),
        (star, 1, 7, "module has a projective direct summand"),
    ]
    for A, top, length, message in cases:
        with pytest.raises(ValueError) as generic:
            min_proj_presentation(uniserial_rep(A, UniserialSpec(top, length)))
        with pytest.raises(ValueError) as closed:
            modules.uniserial_presentation(A, top, length)
        assert str(closed.value) == str(generic.value) == message
        assert A.summand_cache == {}


def test_star_summands_run_no_elimination(monkeypatch):
    """Every uniserial presentation and every stalk over a fresh
    star(10, 3) is read off the star: no linalg.rref call, no syzygy is
    memoized and no module presentation is interned."""
    A = star_algebra(10, 3)
    calls = counting_rref(monkeypatch)
    for top in A.edges:
        for length in range(1, 31):
            modules.uniserial_presentation(A, top, length)
        for degree in (0, 1):
            stalk_complex(A, top, degree)
    assert calls == []
    assert A.syzygy_cache == {}
    assert {key[0] for key in A.summand_cache} == {"uniserial", "stalk"}


def _content(M):
    return M.dims, b"".join(dense(M.act[arrow]).astype(np.int64).tobytes()
                            for arrow in M.algebra.arrows)


def _same_syzygy(got, want):
    (omega, incl, edges, offsets), (omega_w, incl_w, edges_w, offsets_w) = got, want
    A = omega.algebra
    return (
        omega.dims == omega_w.dims
        and all(np.array_equal(dense(omega.act[a]), dense(omega_w.act[a])) for a in A.arrows)
        and len(incl.mats) == len(incl_w.mats)
        and all(np.array_equal(dense(x), dense(y)) for x, y in zip(incl.mats, incl_w.mats))
        and edges == edges_w
        and offsets == offsets_w
    )


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("which", ["star(3,2)", "tree(4,1)"])
def test_syzygy_memo_is_exact(which, p, monkeypatch):
    """A memo hit returns what a fresh algebra built from the same tree
    computes, a module differing in one entry misses, and the shared
    matrices are not edited by the computations that read them."""
    def fresh():
        if which == "star(3,2)":
            return star_algebra(3, 2, p)
        return build_tree_algebra(all_brauer_trees(4, 1)[1], p)

    A = fresh()
    covers = []
    original = modules.projective_cover
    monkeypatch.setattr(modules, "projective_cover", lambda M: covers.append(M) or original(M))
    catalogue = [M for label, M in enumerate_indecomposables(A) if label[0] != "projective"]
    assert catalogue
    for M in catalogue:
        first = modules._syzygy_with_embedding(M)
        computed = len(covers)
        hit = modules._syzygy_with_embedding(Representation(A, M.dims, M.act))
        assert hit is first and len(covers) == computed
        assert syzygy(M) is hit[0]
        B = fresh()
        assert _same_syzygy(hit, modules._syzygy_with_embedding(Representation(B, M.dims, M.act)))

        # B's memo holds M alone; a copy differing in one entry must miss
        for arrow in (a for a in B.arrows if M.act[a].height and M.act[a].cols):
            act = {a: dense(M.act[a]).astype(np.int64) for a in B.arrows}
            act[arrow][0, 0] = (act[arrow][0, 0] + 1) % p
            computed = len(covers)
            with suppress(ValueError):  # the changed copy need not be a module
                modules._syzygy_with_embedding(Representation(B, M.dims, act))
            assert len(covers) == computed + 1

        # the presentation and the second syzygy read the shared result;
        # it must still be what a fresh algebra computes
        min_proj_presentation(M)
        second_syzygy(M)
        assert _same_syzygy(hit, modules._syzygy_with_embedding(Representation(fresh(), M.dims, M.act)))


def test_presentation_and_criterion_compute_each_syzygy_once(monkeypatch):
    """min_proj_presentation and the module criterion that reads it share
    their syzygies: over the star(4, 2) catalogue the projective cover is
    built once per distinct module content, where computing Omega(M) for
    the presentation, again for the second syzygy, and then Omega(Omega M),
    would build it three times per module."""
    A = star_algebra(4, 2)
    covered = []
    original = modules.projective_cover

    def counting_cover(M):
        covered.append(_content(M))
        return original(M)

    monkeypatch.setattr(modules, "projective_cover", counting_cover)
    catalogue = [M for label, M in enumerate_indecomposables(A) if label[0] != "projective"]
    for M in catalogue:
        min_proj_presentation(M)
        module_partial_tilting_test(M)
    assert len(covered) == len(set(covered)) < 3 * len(catalogue)
    assert {_content(M) for M in catalogue} <= set(covered)


def test_presentation_is_built_once_per_module_content(monkeypatch):
    """min_proj_presentation builds a presentation once per module
    content: asked again for copies of the star(4, 2) catalogue, and of a
    multiplicity-1 tree's, it spins no top generators and returns the
    interned complex, equal to a presentation built on a fresh algebra.
    A named copy (reference.named_presentation) carries its own label and
    leaves the interned complex unnamed."""
    tops = []
    original = Representation.top_generators

    def counting(self):
        tops.append(self)
        return original(self)

    monkeypatch.setattr(Representation, "top_generators", counting)
    for A in (star_algebra(4, 2), build_tree_algebra(all_brauer_trees(4, 1)[1])):
        catalogue = [M for label, M in enumerate_indecomposables(A) if label[0] != "projective"]
        tops.clear()
        first = [min_proj_presentation(M) for M in catalogue]
        assert 0 < len(tops) <= 2 * len(catalogue)
        tops.clear()
        again = [min_proj_presentation(Representation(A, M.dims, M.act)) for M in catalogue]
        named = [named_presentation(M, ("named", i)) for i, M in enumerate(catalogue)]
        assert tops == []
        fresh = build_tree_algebra(A.tree, A.prime)
        for i, (T, U, N, M) in enumerate(zip(first, again, named, catalogue)):
            assert U is T and T.name is None
            assert N is not T and N.summand.key == ("pres", ("named", i))
            assert N.comps == T.comps and N.diffs == T.diffs
            want = min_proj_presentation(Representation(fresh, M.dims, M.act))
            assert want is not T and T.comps == want.comps and T.diffs == want.diffs
    with pytest.raises(ValueError, match="projective direct summand"):
        min_proj_presentation(projective_rep(A, A.edges[0]))
    with pytest.raises(ValueError, match="zero module"):
        min_proj_presentation(Representation(A, [0] * A.n, {}))


def test_presentation_is_interned_per_content(monkeypatch):
    """Over one algebra, a module and a copy of its content share one
    presentation, built by one `_presentation` call."""
    A = star_algebra(3, 2)
    built = []
    original = modules._presentation
    monkeypatch.setattr(modules, "_presentation", lambda M: built.append(M) or original(M))
    catalogue = [M for label, M in enumerate_indecomposables(A) if label[0] != "projective"]
    for M in catalogue:
        assert min_proj_presentation(M) is min_proj_presentation(Representation(A, M.dims, M.act))
    assert len(built) == len(catalogue)


def test_syzygies_refuse_a_projective_summand():
    """A module with a projective summand has no second syzygy here, and
    the module criterion refuses it through `syzygy`."""
    A = star_algebra(3, 1)
    M = direct_sum_rep(projective_rep(A, 1), simple_rep(A, 2))
    assert has_projective_summand(M)
    with pytest.raises(ValueError, match="projective direct summand"):
        second_syzygy(M)
    with pytest.raises(ValueError, match="projective direct summand"):
        module_partial_tilting_test(M)
