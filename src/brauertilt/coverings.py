"""Coverings of the n-gon by distinguished intervals, the map from a
covering to a two-term tilting complex over the star algebra, and the
exhaustive search oracle that enumerates all two-term tilting complexes
directly from pairwise chain-map orthogonality.

Intervals are stored ascending as (start, size): the vertex set
{start, ..., start+size-1} mod n with labels 1..n.  Read descending (the
order matching uniserial composition series) the interval (a, r) runs from
i = a+r-1 down to j = a; a big interval contributes the presentation of
the uniserial with top a+r-1 and length r-1, written cover-first as
P_{a+r-1} -> P_{a-1}.

A mode fixes the distinguished singleton of every big outer interval and
the degree of all stalk summands at once:

  deg0: distinguished vertex = interval start (the descending end),
        stalk summands in degree 0 (alongside the syzygy covers);
  deg1: distinguished vertex = interval end (the descending start),
        stalk summands in degree 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .algebra import BrauerTreeAlgebra
from .catalogue import Catalogue
from .complexes import ProjComplex, direct_sum, hom_complex_dim, stalk_complex
from .modules import UniserialSpec, uniserial_presentation
from .tilting import TiltingComplex, is_tilting


def mod1(x: int, n: int) -> int:
    return (x - 1) % n + 1


@dataclass(frozen=True, order=True)
class CyclicInterval:
    start: int
    size: int

    def members(self, n: int) -> list[int]:
        return [mod1(self.start + t, n) for t in range(self.size)]

    def end(self, n: int) -> int:
        return mod1(self.start + self.size - 1, n)

    def contains(self, other: "CyclicInterval", n: int) -> bool:
        off = (other.start - self.start) % n
        return off + other.size <= self.size

    def nested_or_disjoint(self, other: "CyclicInterval", n: int) -> bool:
        """Whether the two arcs of the n-gon do not cross: one contains the
        other or they share no vertex."""
        off = (other.start - self.start) % n
        return (
            self.contains(other, n)
            or other.contains(self, n)
            or (off >= self.size and off + other.size <= n)
        )


def interval_module(iv: CyclicInterval, n: int) -> UniserialSpec:
    """Uniserial summand module of a big interval: top at the descending
    start, one factor shorter than the interval."""
    if iv.size < 2:
        raise ValueError("only intervals with at least 2 vertices give modules")
    return UniserialSpec(iv.end(n), iv.size - 1)


def compatible_stalk(m: UniserialSpec, edge: int, degree: int, n: int) -> bool:
    """Whether the stalk of P_edge in the given degree is orthogonal to the
    minimal presentation of the uniserial m."""
    if degree not in (0, 1):
        raise ValueError("degree must be 0 or 1")
    if not 1 <= m.length < n:
        raise ValueError(f"length {m.length} out of range 1..{n - 1}")
    # degree 0 tests against the composition factors of m, degree 1 against
    # those of its second syzygy (everything shifted one step down)
    start = mod1(m.top - m.length + 1 - degree, n)
    return (edge - start) % n >= m.length


@dataclass(frozen=True)
class Covering:
    """Noncrossing outer intervals partitioning the n-gon, nested inner
    intervals (size - 2 of them per big outer), and a mode fixing the
    distinguished singletons and the stalk degree."""

    n: int
    outer: tuple
    inner: tuple  # tuple of tuples, aligned with outer
    mode: str

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"an n-gon needs n >= 1, got {self.n}")
        if self.mode not in ("deg0", "deg1"):
            raise ValueError("mode must be 'deg0' or 'deg1'")
        if len(self.inner) != len(self.outer):
            raise ValueError("inner families must align with outer intervals")
        seen = []
        for idx, o in enumerate(self.outer):
            if not 1 <= o.size <= self.n or not 1 <= o.start <= self.n:
                raise ValueError(f"outer interval {o} out of range")
            seen.extend(o.members(self.n))
            fam = self.inner[idx]
            if o.size == 1:
                if fam:
                    raise ValueError("singleton outer cannot carry inner intervals")
                continue
            if len(fam) != o.size - 2:
                raise ValueError(
                    f"outer {o} needs exactly {o.size - 2} inner intervals"
                )
            if len(set(fam)) != len(fam):
                raise ValueError("inner intervals must be distinct")
            for iv in fam:
                if iv.size < 2 or iv.size >= o.size:
                    raise ValueError(f"inner interval {iv} has invalid size")
                if not o.contains(iv, self.n):
                    raise ValueError(f"inner interval {iv} escapes its outer {o}")
            for u, v in combinations(fam, 2):
                if not u.nested_or_disjoint(v, self.n):
                    raise ValueError(f"inner intervals {u}, {v} cross")
        if sorted(seen) != list(range(1, self.n + 1)):
            raise ValueError("outer intervals do not partition the vertices")

    def is_trivial(self) -> bool:
        return all(o.size == 1 for o in self.outer)

    def distinguished(self, o: CyclicInterval) -> int:
        return o.start if self.mode == "deg0" else o.end(self.n)

    def stalk_degree(self) -> int:
        return 0 if self.mode == "deg0" else 1

    def sort_key(self):
        return (
            self.mode,
            tuple((o.start, o.size) for o in self.outer),
            tuple(tuple((i.start, i.size) for i in fam) for fam in self.inner),
        )


def covering_to_complex(cov: Covering, A: BrauerTreeAlgebra) -> TiltingComplex:
    """The tilting complex of a covering: presentations for the big
    intervals, stalks for singleton outers and distinguished points,
    decided once (TiltingComplex.of_parts), so the decoders and
    endo_cartan take it as decided."""
    A.require_star()
    if A.n != cov.n:
        raise ValueError(f"covering is over a {cov.n}-gon, algebra has {A.n} edges")
    degree = cov.stalk_degree()
    parts = []
    for o, fam in sorted(zip(cov.outer, cov.inner), key=lambda of: of[0].start):
        if o.size == 1:
            parts.append(stalk_complex(A, o.start, degree))
            continue
        for iv in [o, *sorted(fam, key=lambda i: ((i.start - o.start) % cov.n, -i.size))]:
            spec = interval_module(iv, cov.n)
            parts.append(uniserial_presentation(A, spec.top, spec.length))
        parts.append(stalk_complex(A, cov.distinguished(o), degree))
    return TiltingComplex.of_parts(parts)


# -- enumeration --------------------------------------------------------------------


@lru_cache(maxsize=None)
def _inner_families(size: int):
    """Families of exactly size-2 distinct sub-intervals of a linear window
    of `size` points, each with 2..size-1 points, pairwise nested or
    disjoint; each is a CyclicInterval of the window read as a cycle of
    `size` points 0..size-1, whose start is its offset into the window
    (sub-intervals of a window never wrap, so they cross as arcs exactly
    when they cross as segments)."""
    cands = [CyclicInterval(x, w) for w in range(2, size) for x in range(size - w + 1)]
    return tuple(
        tuple(sorted(combo))
        for combo in combinations(cands, size - 2)
        if all(u.nested_or_disjoint(v, size) for u, v in combinations(combo, 2))
    )


def _outer_partitions(n: int):
    """All partitions of the cycle 1..n into ascending intervals; a single
    full interval remembers its start, so it appears once per start."""
    out = []
    for s in range(1, n + 1):
        out.append((CyclicInterval(s, n),))
    for d in range(2, n + 1):
        for starts in combinations(range(1, n + 1), d):
            ivs = []
            for t in range(d):
                a = starts[t]
                b = starts[(t + 1) % d]
                ivs.append(CyclicInterval(a, (b - a) % n or n))
            out.append(tuple(ivs))
    return out


def enumerate_coverings(n: int) -> list[Covering]:
    """All coverings of the n-gon by distinguished intervals, both modes,
    except the trivial covering (all singletons)."""
    if n < 1:
        raise ValueError("n must be positive")
    from itertools import product

    out = []
    for outer in _outer_partitions(n):
        fam_choices = []
        for o in outer:
            if o.size == 1:
                fam_choices.append(((),))
            else:
                fam_choices.append(
                    tuple(
                        tuple(
                            CyclicInterval(mod1(o.start + iv.start, n), iv.size) for iv in fam
                        )
                        for fam in _inner_families(o.size)
                    )
                )
        for fams in product(*fam_choices):
            for mode in ("deg0", "deg1"):
                cov = Covering(n, outer, fams, mode)
                if not cov.is_trivial():
                    out.append(cov)
    return sorted(out, key=Covering.sort_key)


# -- brute-force oracle ---------------------------------------------------------------


def star_catalogue(A: BrauerTreeAlgebra) -> Catalogue:
    """The catalogue of the star algebra A (catalogue.Catalogue), built on
    first use and kept on A: the minimal presentations of every
    nonprojective uniserial and the stalks in both degrees that are partial
    tilting, in summand-key order.  Members with self-extensions are
    filtered out by the chain-map computation itself, not by any length
    rule: a presentation stays when Hom(T, T[1]) = 0, as Hom(T, T[-1]) has
    the same dimension because the algebra is symmetric (0-Calabi-Yau
    duality, checked by the shift-duality suite); a stalk lies in one
    degree and always stays."""
    if A.catalogue is None:
        A.require_star()
        n, k = A.n, A.tree.multiplicity
        items = [uniserial_presentation(A, top, l) for top in A.edges for l in range(1, n * k + 1)]
        keep = [T for T in items if hom_complex_dim(T, T, 1) == 0]
        keep += [stalk_complex(A, e, d) for e in A.edges for d in (0, 1)]
        A.catalogue = Catalogue.of(sorted(keep, key=lambda T: T.summand.key))
    return A.catalogue


def tilting_catalog(A: BrauerTreeAlgebra) -> list[ProjComplex]:
    """Candidate indecomposable two-term summands of the star algebra A:
    the members of its catalogue (star_catalogue)."""
    return list(star_catalogue(A).members)


def enumerate_two_term_tilting_bruteforce(A: BrauerTreeAlgebra) -> list[ProjComplex]:
    """Exhaustive enumeration of basic two-term tilting complexes by clique
    search over pairwise compatibility, with a final full verification of
    every candidate.  Two catalogue members a, b are compatible when
    Hom(a, b[1]) = Hom(b, a[1]) = 0, read off the catalogue's rows; the
    spaces at shift -1 are their duals (Hom(a, b[-1]) = D Hom(b, a[1])
    over a symmetric algebra), so they are not computed.  The search ANDs
    the rows of the members chosen so far and extends by the lowest
    remaining member first, so the cliques come in lexicographic order of
    their member indices; each is summed and decided by
    is_tilting(direct=True)."""
    A.require_star()
    n, k = A.n, A.tree.multiplicity
    if n > 5 or k > 2:
        raise ValueError("search budget allows n <= 5 and k <= 2")
    cat = star_catalogue(A)
    found = []

    def extend(chosen, candidates):
        if len(chosen) == n:
            T = direct_sum([cat.members[i] for i in chosen])
            if not is_tilting(T, direct=True):
                raise AssertionError("pairwise orthogonal family failed full verification")
            found.append(T)
            return
        while candidates.bit_count() >= n - len(chosen):
            i = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            extend(chosen + [i], candidates & cat.rows[i])

    extend([], (1 << len(cat.members)) - 1)
    return found


def complex_label_key(T: ProjComplex):
    return tuple(sorted(l.key for l in T.labels))
