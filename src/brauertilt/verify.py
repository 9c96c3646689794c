"""Named verification suites: each reruns one of the package's headline
guarantees end to end and reports pass/fail with counterexamples.

Every suite returns a canonical fingerprint of its numerical output, so the
whole battery can be compared across working primes.  Results are memoized
per (suite, prime) within the process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from .algebra import DEFAULT_PRIME, build_tree_algebra, socle_class, star_algebra
from .complexes import (
    algebra_complex,
    direct_sum,
    euler_pairing,
    hom_complex_dim,
    stalk_complex,
)
from .coverings import (
    Covering,
    CyclicInterval,
    complex_label_key,
    covering_to_complex,
    enumerate_coverings,
    enumerate_two_term_tilting_bruteforce,
    interval_module,
    compatible_stalk,
)
from .endo import endo_brauer_tree, endo_cartan, is_autoequivalence_covering
from .modules import enumerate_indecomposables, min_proj_presentation, uniserial_presentation
from .realization import realize
from .tilting import is_partial_tilting, module_partial_tilting_test
from .trees import BrauerTree, all_brauer_trees

FIELD_PRIMES = (2, 3, DEFAULT_PRIME)

_ALGEBRAS: dict = {}
_MEMO: dict = {}


@dataclass
class SuiteResult:
    name: str
    ok: bool
    lines: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    fingerprint: object = None


def _shared(kind, n, k, prime):
    """Built once per (kind, n, k, prime) in _ALGEBRAS and shared by the
    suites: the star algebra ("star"), every tree with its algebra
    ("trees"), or the brute-force tilting complexes over the star ("brute")."""
    key = (kind, n, k, prime)
    if key not in _ALGEBRAS:
        if kind == "star":
            _ALGEBRAS[key] = star_algebra(n, k, prime)
        elif kind == "trees":
            _ALGEBRAS[key] = [(t, build_tree_algebra(t, prime)) for t in all_brauer_trees(n, k)]
        else:
            _ALGEBRAS[key] = enumerate_two_term_tilting_bruteforce(_shared("star", n, k, prime))
    return _ALGEBRAS[key]


# -- suites ----------------------------------------------------------------------------


def suite_presentation_criterion(prime) -> SuiteResult:
    """The module-level partial tilting test agrees with the chain-map
    decision for every indecomposable nonprojective module over the test
    algebras (stars up to (5,3), multiplicity-1 trees up to 4 edges)."""
    entries = []
    failures = []
    algebras = [(f"star({n},{k})", _shared("star", n, k, prime))
                 for n in range(1, 6) for k in range(1, 4)]
    for n in range(1, 5):
        for i, (tree, A) in enumerate(_shared("trees", n, 1, prime)):
            algebras.append((f"tree(n={n},#{i})", A))
    for name, A in algebras:
        for label, M in enumerate_indecomposables(A):
            if label[0] == "projective":
                continue
            by_module = module_partial_tilting_test(M)
            by_chain = is_partial_tilting(min_proj_presentation(M), direct=True)
            entries.append((name, label, by_module))
            if by_module != by_chain:
                failures.append((name, label, by_module, by_chain))
    lines = [f"checked {len(entries)} modules over {len(algebras)} algebras"]
    return SuiteResult(
        "presentation-criterion",
        not failures,
        lines,
        failures,
        tuple(entries),
    )


def _socle_edge(T):
    """e when T is P_e -> P_e, right multiplication by a nonzero multiple
    of the socle class z_e: the presentation of P_e/soc(P_e), since z_e
    spans soc(P_e).  None for any other complex."""
    e = T.slots(1)[0] if len(T.slots(1)) == 1 else None
    if T.comps != {0: (e,), 1: (e,)}:
        return None
    entry, z = T.diff(0)[0][0], socle_class(e)
    return e if list(entry) == [z] and entry[z] % T.algebra.prime else None


def suite_socle_quotient(prime) -> SuiteResult:
    """Over every multiplicity-1 tree algebra with up to 4 edges, exactly
    n modules fail partial tilting, and their presentations are those of
    the n modules P_e/soc(P_e), one per edge e."""
    failures = []
    entries = []
    total_algebras = 0
    for n in range(1, 5):
        for i, (tree, A) in enumerate(_shared("trees", n, 1, prime)):
            total_algebras += 1
            name = f"tree(n={n},#{i})"
            failing = []
            for label, M in enumerate_indecomposables(A):
                if label[0] == "projective":
                    continue
                T = min_proj_presentation(M)
                if not is_partial_tilting(T, direct=True):
                    failing.append((label, T))
            entries.append((name, tuple(sorted(l for l, _ in failing))))
            if len(failing) != A.n:
                failures.append((name, "count", len(failing), A.n))
                continue
            edges = [_socle_edge(T) for _, T in failing]
            unmatched = [label for (label, _), e in zip(failing, edges) if e is None]
            if unmatched:
                failures.append((name, "unmatched", tuple(unmatched)))
            elif sorted(edges) != sorted(A.edges):
                failures.append((name, "edges", tuple(edges)))
    lines = [f"checked {total_algebras} tree algebras"]
    return SuiteResult("socle-quotient", not failures, lines, failures, tuple(entries))


def suite_length_bound(prime) -> SuiteResult:
    """Over star(n,k) for n <= 5, k <= 3, the presentation of a uniserial
    is partial tilting exactly when its length is below n."""
    failures = []
    entries = []
    for n in range(1, 6):
        for k in range(1, 4):
            A = _shared("star", n, k, prime)
            for top in A.edges:
                for l in range(1, n * k + 1):
                    pt = is_partial_tilting(uniserial_presentation(A, top, l))
                    entries.append((n, k, top, l, pt))
                    if pt != (l < n):
                        failures.append((n, k, top, l, pt))
    lines = [f"checked {len(entries)} uniserial presentations"]
    return SuiteResult("length-bound", not failures, lines, failures, tuple(entries))


def _duality_corpus(prime):
    """Each uniserial presentation and stalk over four small stars, each
    pair of them, and overlapping triples of star(3, 1)'s."""
    corpus = []
    for n, k in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        A = _shared("star", n, k, prime)
        parts = [
            uniserial_presentation(A, top, l) for top in A.edges for l in range(1, n * k + 1)
        ]
        parts += [stalk_complex(A, e, d) for e in A.edges for d in (0, 1)]
        corpus.extend(parts)
        for a, b in combinations_with_replacement(range(len(parts)), 2):
            corpus.append(direct_sum([parts[a], parts[b]]))
        if (n, k) == (3, 1):
            star31 = parts
    for t in range(0, len(star31) - 2, 2):
        corpus.append(direct_sum(star31[t : t + 3]))
    return corpus


def suite_shift_duality(prime) -> SuiteResult:
    """dim Hom(T, T[1]) = dim Hom(T, T[-1]) across the assembled corpus
    (the algebras are symmetric).  Both sides are computed directly: this
    is the check on the duality that is_partial_tilting, tilting_catalog
    and the brute-force filter use to skip the negative shifts."""
    corpus = _duality_corpus(prime)
    failures = []
    entries = []
    for T in corpus:
        up = hom_complex_dim(T, T, 1, direct=True)
        down = hom_complex_dim(T, T, -1, direct=True)
        entries.append((up, down))
        if up != down:
            failures.append((T.display(), up, down))
    lines = [f"checked {len(corpus)} complexes"]
    ok = not failures and len(corpus) >= 500
    if len(corpus) < 500:
        failures.append(("corpus too small", len(corpus)))
    return SuiteResult("shift-duality", ok, lines, failures, tuple(entries))


BIJECTION_CASES = ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2))


def suite_covering_bijection(prime) -> SuiteResult:
    """Coverings biject with the basic two-term tilting complexes other
    than A and A[-1], checked against the exhaustive search oracle."""
    failures = []
    entries = []
    for n, k in BIJECTION_CASES:
        A = _shared("star", n, k, prime)
        brute = _shared("brute", n, k, prime)
        brute_keys = {complex_label_key(T) for T in brute}
        if len(brute_keys) != len(brute):
            failures.append((n, k, "duplicate complexes in brute force"))
        covs = enumerate_coverings(n)
        images = {}
        for cov in covs:
            key = complex_label_key(covering_to_complex(cov, A))
            if key in images:
                failures.append((n, k, "not injective", cov.sort_key()))
            images[key] = cov
        special = {
            complex_label_key(algebra_complex(A, 0)),
            complex_label_key(algebra_complex(A, 1)),
        }
        if len(brute) != len(covs) + 2:
            failures.append((n, k, "count", len(brute), len(covs)))
        if set(images) | special != brute_keys or set(images) & special:
            failures.append((n, k, "image mismatch"))
        entries.append((n, k, len(covs), len(brute)))
    lines = [f"{n},{k}: {c} coverings, {b} tilting complexes" for n, k, c, b in entries]
    return SuiteResult("covering-bijection", not failures, lines, failures, tuple(entries))


def suite_hom_tables(prime) -> SuiteResult:
    """Hom dimensions at shift zero between summand types reproduce the
    five presentation-pair cases, both mixed values and both stalk values,
    over star(4,1), star(5,1) and star(3,2)."""
    failures = []
    counts = {"pair": 0, "mixed": 0, "stalk": 0}
    for n, k in ((4, 1), (5, 1), (3, 2)):
        A = _shared("star", n, k, prime)
        intervals = [
            CyclicInterval(s, r) for s in range(1, n + 1) for r in range(2, n + 1)
        ]
        for I in intervals:
            for J in intervals:
                mi, mj = interval_module(I, n), interval_module(J, n)
                if frozenset(I.members(n)).isdisjoint(J.members(n)):
                    expect = 0
                elif I == J:
                    expect = 2
                elif I.contains(J, n) or J.contains(I, n):
                    same_desc_start = I.end(n) == J.end(n)
                    same_desc_end = I.start == J.start
                    expect = 1 if (same_desc_start != same_desc_end) else 0
                else:
                    continue  # crossing pair, outside the table
                got = hom_complex_dim(
                    uniserial_presentation(A, mi.top, mi.length),
                    uniserial_presentation(A, mj.top, mj.length),
                    0,
                )
                counts["pair"] += 1
                if got != expect:
                    failures.append((n, k, "pair", (I.start, I.size), (J.start, J.size), expect, got))
        for I in intervals:
            m = interval_module(I, n)
            P = uniserial_presentation(A, m.top, m.length)
            for e in A.edges:
                for degree in (0, 1):
                    if not compatible_stalk(m, e, degree, n):
                        continue
                    expect = 1 if (e == I.start if degree == 0 else e == I.end(n)) else 0
                    st = stalk_complex(A, e, degree)
                    got1 = hom_complex_dim(st, P, 0)
                    got2 = hom_complex_dim(P, st, 0)
                    counts["mixed"] += 2
                    if got1 != expect or got2 != expect:
                        failures.append((n, k, "mixed", (I.start, I.size), e, degree, expect, got1, got2))
        for e in A.edges:
            for f in A.edges:
                for degree in (0, 1):
                    expect = k + 1 if e == f else k
                    got = hom_complex_dim(
                        stalk_complex(A, e, degree), stalk_complex(A, f, degree), 0
                    )
                    counts["stalk"] += 1
                    if got != expect:
                        failures.append((n, k, "stalk", e, f, degree, expect, got))
    lines = [f"pair cases: {counts['pair']}, mixed: {counts['mixed']}, stalk: {counts['stalk']}"]
    return SuiteResult(
        "hom-tables", not failures, lines, failures, tuple(sorted(counts.items()))
    )


def suite_euler_pairing(prime) -> SuiteResult:
    """The alternating-sum pairing equals the shift-zero Hom dimension on
    every summand pair of every enumerated tilting complex."""
    failures = []
    pairs = 0
    complexes = 0
    for n, k in BIJECTION_CASES:
        for T in _shared("brute", n, k, prime):
            complexes += 1
            parts = T.parts
            for i in range(len(parts)):
                for j in range(len(parts)):
                    pairs += 1
                    e = euler_pairing(parts[i], parts[j])
                    h = hom_complex_dim(parts[i], parts[j], 0)
                    if e != h:
                        failures.append((n, k, T.labels[i].key, T.labels[j].key, e, h))
    lines = [f"checked {pairs} summand pairs in {complexes} tilting complexes"]
    return SuiteResult("euler-pairing", not failures, lines, failures, (complexes, pairs))


LINE_EXAMPLE_GOLDEN = {
    "summands": ["P_4->P_1", "P_4->P_2", "P_3->P_2", "P_1[deg 0]"],
    "cartan": [[2, 1, 0, 1], [1, 2, 1, 0], [0, 1, 2, 0], [1, 0, 0, 2]],
    "quiver": "d <-> a <-> b <-> c",
    "tree_edges": 4,
}


def suite_line_example(prime) -> SuiteResult:
    """The worked 4-gon covering: summand list, endomorphism quiver
    d <-> a <-> b <-> c and the 4-edge line Brauer graph."""
    failures = []
    A = _shared("star", 4, 1, prime)
    cov = Covering(
        4,
        (CyclicInterval(1, 4),),
        ((CyclicInterval(2, 3), CyclicInterval(2, 2)),),
        "deg0",
    )
    T = covering_to_complex(cov, A)
    summands = [l.display() for l in T.labels]
    if summands != LINE_EXAMPLE_GOLDEN["summands"]:
        failures.append(("summands", summands))
    cart = endo_cartan(T)
    if cart != LINE_EXAMPLE_GOLDEN["cartan"]:
        failures.append(("cartan", cart))
    tree, label_map = endo_brauer_tree(T, method="both")
    line = BrauerTree(
        range(5),
        {i: (i, i + 1) for i in range(4)},
        {0: (0,), 1: (0, 1), 2: (1, 2), 3: (2, 3), 4: (3,)},
        0,
        1,
    )
    if not tree.is_isomorphic_to(line):
        failures.append(("tree", "not the 4-edge line"))
    # quiver arrows both ways along d-a-b-c and nowhere else
    idx = {l.key: i for i, l in enumerate(T.labels)}
    a = idx[("pres", ("uniserial", 4, 3))]
    b = idx[("pres", ("uniserial", 4, 2))]
    c = idx[("pres", ("uniserial", 3, 1))]
    d = idx[("stalk", 1, 0)]
    order = [d, a, b, c]
    for i in range(4):
        for j in range(4):
            expected = 1 if abs(order.index(i) - order.index(j)) == 1 else (2 if i == j else 0)
            if cart[i][j] != expected:
                failures.append(("adjacency", i, j, cart[i][j], expected))
    lines = [f"summands: {', '.join(summands)}", f"quiver: {LINE_EXAMPLE_GOLDEN['quiver']}"]
    return SuiteResult(
        "line-example", not failures, lines, failures, (tuple(summands), tuple(map(tuple, cart)))
    )


def suite_realization_roundtrip(prime) -> SuiteResult:
    """Every Brauer tree with up to 4 edges and multiplicity 1 or 2 is
    recovered from the endomorphism ring of its realization, for both
    stalk placements."""
    failures = []
    count = 0
    for n in range(1, 5):
        for k in (1, 2):
            A = _shared("star", n, k, prime)
            for t in all_brauer_trees(n, k):
                for sd in (0, 1):
                    count += 1
                    T = realize(t, A, stalk_degree=sd)
                    back, _ = endo_brauer_tree(T, method="both")
                    if not back.is_isomorphic_to(t):
                        failures.append((n, k, sd, t.canonical_key()))
    lines = [f"round-tripped {count} (tree, stalk degree) instances"]
    return SuiteResult(
        "realization-roundtrip", not failures, lines, failures, (count, len(failures))
    )


def suite_star_autoequivalences(prime) -> SuiteResult:
    """For multiplicity 1 exactly 2n nontrivial coverings give an
    endomorphism ring isomorphic to the star (plus the trivial covering);
    for multiplicity 2 only the trivial covering does."""
    failures = []
    fingerprint = []
    for k in (1, 2):
        for n in range(2, 6):
            A = _shared("star", n, k, prime)
            hits = [cov.sort_key() for cov in enumerate_coverings(n)
                    if is_autoequivalence_covering(cov, A)]
            trivial_ok = all(
                endo_brauer_tree(algebra_complex(A, d), method="both")[0].is_isomorphic_to(A.tree)
                for d in (0, 1)
            )
            if not trivial_ok:
                failures.append((n, k, "trivial covering failed"))
            expected = 2 * n if k == 1 else 0
            if len(hits) != expected:
                failures.append((n, k, "hit count", len(hits), expected))
            fingerprint.append((n, k, tuple(sorted(hits))))
    lines = [f"n={n} k={k}: {len(hits)} nontrivial self-equivalence coverings"
             for n, k, hits in fingerprint]
    return SuiteResult(
        "star-autoequivalences", not failures, lines, failures, tuple(fingerprint)
    )


SUITES = {
    "presentation-criterion": suite_presentation_criterion,
    "socle-quotient": suite_socle_quotient,
    "length-bound": suite_length_bound,
    "shift-duality": suite_shift_duality,
    "covering-bijection": suite_covering_bijection,
    "hom-tables": suite_hom_tables,
    "euler-pairing": suite_euler_pairing,
    "line-example": suite_line_example,
    "realization-roundtrip": suite_realization_roundtrip,
    "star-autoequivalences": suite_star_autoequivalences,
}


def run_suite(name: str, prime: int = DEFAULT_PRIME) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite '{name}'; choose from {sorted(SUITES)}")
    key = (name, prime)
    if key not in _MEMO:
        _MEMO[key] = SUITES[name](prime=prime)
    return _MEMO[key]


def field_independence():
    """Fingerprints of every suite at each of FIELD_PRIMES; returns
    (ok, per-suite fingerprint table)."""
    table = {}
    ok = True
    for name in SUITES:
        prints = []
        for p in FIELD_PRIMES:
            res = run_suite(name, prime=p)
            prints.append(res.fingerprint)
            ok = ok and res.ok
        table[name] = prints
        if any(fp != prints[0] for fp in prints[1:]):
            ok = False
    return ok, table
