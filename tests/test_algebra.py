import pytest

from brauertilt.algebra import (
    BrauerTreeAlgebra,
    PathClass,
    build_tree_algebra,
    idempotent,
    socle_class,
    star_algebra,
)
from brauertilt.trees import BrauerTree, all_brauer_trees


def walk_dim_oracle(tree, edge):
    """Independent projective dimension count: both windings at the edge,
    overlapping in the top and the socle."""
    v, w = tree.edges[edge]
    return tree.winding_bound(v) + tree.winding_bound(w)


def test_one_edge_star_truncated_polynomial():
    A = star_algebra(1, 3)
    assert A.dim == 4
    kinds = sorted(pc.kind for pc in A.basis)
    assert kinds == ["e", "p", "p", "z"]
    a = A.star_path(1, 1)
    assert A.compose(a, a) == A.star_path(1, 2)
    assert A.compose(A.star_path(1, 2), a) == socle_class(1)


def test_two_edge_line_equals_star21():
    line = BrauerTree(range(3), {1: (0, 1), 2: (1, 2)}, {0: (1,), 1: (1, 2), 2: (2,)}, 1, 1)
    A = build_tree_algebra(line)
    assert A.dim == 6
    assert A.cartan_matrix() == [[2, 1], [1, 2]]
    assert A.cartan_matrix() == star_algebra(2, 1).cartan_matrix()


def test_star_cartan_and_dims():
    A = star_algebra(3, 1)
    assert A.cartan_matrix() == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    A = star_algebra(2, 2)
    assert len(A.blocks[(1, 2)]) == 2
    A = star_algebra(4, 1)
    assert all(A.dim_projective(i) == 5 for i in A.edges)
    assert A.dim == 20
    assert star_algebra(1, 2).cartan_matrix() == [[3]]


def test_column_sums_match_walk_oracle():
    for tree in [BrauerTree.star(3, 2), BrauerTree.star(5, 1)]:
        A = build_tree_algebra(tree)
        for e in A.edges:
            assert A.dim_projective(e) == walk_dim_oracle(tree, e)


def test_socle_annihilation():
    A = star_algebra(3, 2)
    for i in A.edges:
        z = socle_class(i)
        assert A.compose(idempotent(i), z) == z
        assert A.compose(z, z) is None
        for arrow in A.arrows:
            if arrow.start == i:
                assert A.compose(z, arrow) is None


def test_compose_examples_star21():
    A = star_algebra(2, 1)
    a1, a2 = A.star_path(1, 1), A.star_path(2, 1)
    assert A.compose(idempotent(1), a1) == a1
    assert A.compose(a1, a2) == socle_class(1)
    assert A.compose(socle_class(1), a1) is None
    # winding past the socle dies
    assert A.compose(a1, socle_class(2)) is None


def test_compose_rejects_foreign_classes():
    A = star_algebra(2, 1)
    B = star_algebra(3, 1)
    foreign = B.star_path(1, 2)
    with pytest.raises(ValueError):
        A.compose(foreign, idempotent(1))


def test_hom_basis_contains_identity():
    A = star_algebra(4, 1)
    for i in A.edges:
        basis = A.blocks[(i, i)]
        assert idempotent(i) in basis
        assert len(basis) == 2
    assert len(A.blocks[(1, 3)]) == 1


def test_cartan_symmetric_and_prime_free():
    """On every tree with at most 5 edges and k <= 3 the algebra's Cartan
    matrix is the same at every prime and is the one read off the tree."""
    for n in range(1, 6):
        for k in (1, 2, 3):
            for tree in all_brauer_trees(n, k):
                c = tree.cartan_matrix()
                assert all(c[i][j] == c[j][i] for i in range(n) for j in range(n))
                assert all(c[i][i] > 0 for i in range(n))
                for p in (2, 3, 32003):
                    assert build_tree_algebra(tree, p).cartan_matrix() == c


def test_parameter_validation():
    with pytest.raises(ValueError):
        star_algebra(0, 1)
    with pytest.raises(ValueError):
        star_algebra(2, 0)


def test_working_prime_must_be_prime_below_2_31():
    for bad in (0, 1, 4, 9, 32001, 2**31, 2147483659):
        with pytest.raises(ValueError, match="prime"):
            star_algebra(2, 1, prime=bad)
    for good in (2, 3, 32003, 2**31 - 1):
        assert star_algebra(2, 1, prime=good).prime == good


# arrows 1 -> 2 and 2 -> 3 around the center of a star
ARROW_1, ARROW_2 = PathClass("p", 1, 2, 0, 1), PathClass("p", 2, 3, 0, 1)


def corrupt_product(monkeypatch, pair, wrong):
    """Make the multiplication table hold `wrong` as the product of `pair`."""
    raw = BrauerTreeAlgebra._compose_raw

    def patched(self, p, q):
        return wrong if (p, q) == pair else raw(self, p, q)

    monkeypatch.setattr(BrauerTreeAlgebra, "_compose_raw", patched)


def test_self_check_catches_non_associative_product(monkeypatch):
    # dim 182: dim**3 is above 3e6, where the check once switched itself off
    assert star_algebra(13, 1).compose(ARROW_1, ARROW_2) == PathClass("p", 1, 3, 0, 2)
    corrupt_product(monkeypatch, (ARROW_1, ARROW_2), None)
    with pytest.raises(AssertionError, match="not associative"):
        star_algebra(13, 1)


def test_self_check_catches_product_with_wrong_endpoints(monkeypatch):
    corrupt_product(monkeypatch, (ARROW_1, ARROW_2), PathClass("p", 1, 4, 0, 3))
    with pytest.raises(AssertionError, match="not a basis class from edge 1 to edge 3"):
        star_algebra(13, 1)


def test_self_check_catches_wrong_cartan(monkeypatch):
    """Dropping one class from the blocks e_1 A e_2 and e_2 A e_1 keeps the
    Cartan matrix symmetric; the comparison with the tree still fails."""
    raw = BrauerTreeAlgebra._build_basis

    def patched(self):
        raw(self)
        for key in ((1, 2), (2, 1)):
            self.blocks[key] = self.blocks[key][:-1]

    monkeypatch.setattr(BrauerTreeAlgebra, "_build_basis", patched)
    with pytest.raises(AssertionError, match="Cartan matrix"):
        star_algebra(3, 2)


def test_self_check_catches_non_associative_product_of_longer_paths(monkeypatch):
    """A wrong product of two paths of length 2, neither a generator: the
    generators as middle factors still see it, at (p[1;1], arrow 2 -> 3,
    p[3;2])."""
    first, then = PathClass("p", 1, 3, 0, 2), PathClass("p", 3, 5, 0, 2)
    assert star_algebra(13, 1).compose(first, then) == PathClass("p", 1, 5, 0, 4)
    corrupt_product(monkeypatch, (first, then), None)
    with pytest.raises(AssertionError, match="not associative"):
        star_algebra(13, 1)


def test_self_check_catches_class_that_is_no_product_of_generators(monkeypatch):
    """Over star(1, 3), with e, a, a^2 and z, dropping the products a a^2
    and a^2 a leaves an associative table (z is orthogonal to a) in which
    z is not a product of generators, so associativity is not proved."""
    a, a2 = PathClass("p", 1, 1, 0, 1), PathClass("p", 1, 1, 0, 2)
    A = star_algebra(1, 3)
    assert A.compose(a, a2) == A.compose(a2, a) == socle_class(1)
    raw = BrauerTreeAlgebra._compose_raw

    def patched(self, p, q):
        return None if {p, q} == {a, a2} else raw(self, p, q)

    monkeypatch.setattr(BrauerTreeAlgebra, "_compose_raw", patched)
    with pytest.raises(AssertionError, match=r"basis class z\[1\] is not a product of generators"):
        star_algebra(1, 3)
