"""The three workloads and the correctness gate each one applies.

Every workload drives the package from outside, through its public
functions, and records three things in a Recorder: checks (attempted and
failed) and the time of each unit answer.  All package functions are
looked up on the module at call time, so traced runs see the wrappers that
layertrace.Tracer installs.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from math import comb

from inputs import DIRECT_STAR, oracle_decisions, random_tree_specs

# sha256 of repr(SuiteResult.fingerprint) for every verify suite at
# p = 32003, recorded from the package as first committed.  The digests were
# the same under PYTHONHASHSEED 0 and 12345.
SUITE_DIGESTS = {
    "covering-bijection": "6bf25ce54168ee5b",
    "euler-pairing": "42df4fbf828b170a",
    "hom-tables": "47386c80d59db477",
    "length-bound": "208085f0d789ef1f",
    "line-example": "09e4d8fdddbdb17a",
    "presentation-criterion": "2b48f5849464b0de",
    "realization-roundtrip": "ec0a03b09deeab36",
    "shift-duality": "4377ade10806513c",
    "socle-quotient": "e2a1df0fcae038ec",
    "star-autoequivalences": "c39c321b5e011960",
}

# Brauer trees with 5 edges: OEIS A002995 (plane trees, multiplicity 1) and
# A003239 (plane trees with a marked vertex up to rotation, multiplicity >= 2).
CENSUS_EDGES = 5
CENSUS_COUNTS = {1: 6, 2: 26}

ORACLE_STARS = ((5, 1), (5, 2))


class Recorder:
    """Checks and unit-answer timings of one pass.

    Each unit answer is timed as its start and end on `clock`, under a key
    that is unique within the pass.  A key that recurs in other passes of
    the run is the same question asked again (the same suite, covering or
    census tree); run.py takes each key at its median over the passes.
    """

    def __init__(self, tracer=None, clock=time.perf_counter):
        self.tracer = tracer
        self.clock = clock
        self.attempted = 0
        self.failures: list[str] = []
        self.items: dict[str, tuple[float, float]] = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @contextmanager
    def timed(self, key: str, span: bool = False):
        """Time the block as the unit answer `key`; with `span`, a traced
        pass also records it as a span under the key."""
        if key in self.items:
            raise ValueError(f"item {key!r} timed twice in one pass")
        if span and self.tracer:
            self.tracer.enter(key)
        start = self.clock()
        try:
            yield
        finally:
            self.items[key] = (start, self.clock())
            if span and self.tracer:
                self.tracer.exit()


def fingerprint_digest(fingerprint) -> str:
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()[:16]


# -- inputs (built during set-up) ------------------------------------------------------


def verify_inputs(bt, rng):
    return {"suites": sorted(bt.verify.SUITES), "digests": SUITE_DIGESTS}


def oracle_inputs(bt, rng):
    return {"decisions": oracle_decisions(rng)}


def roundtrip_inputs(bt, rng):
    return {"random_trees": [bt.BrauerTree(**spec) for spec in random_tree_specs(rng)]}


# -- workloads -------------------------------------------------------------------------


def verify_cold(bt, inputs, rec: Recorder) -> None:
    """Every verify suite in sorted order at the default prime, as
    `brauertilt verify all` runs them; one item per suite."""
    for name in inputs["suites"]:
        with rec.timed(f"verify.{name}", span=True):
            result = bt.verify.run_suite(name)
        rec.check(result.ok, f"{name}: suite reports failure")
        digest = fingerprint_digest(result.fingerprint)
        rec.check(
            digest == inputs["digests"].get(name),
            f"{name}: fingerprint digest {digest} differs from the reference",
        )


def tilting_oracle(bt, inputs, rec: Recorder) -> None:
    """Brute-force oracle against the coverings, then one direct tilting
    decision per covering of the direct star; one item per decision."""
    key = bt.coverings.complex_label_key
    for n, k in ORACLE_STARS:
        A = bt.star_algebra(n, k)
        brute = bt.enumerate_two_term_tilting_bruteforce(A)
        brute_keys = {key(T) for T in brute}
        cover_keys = {key(bt.covering_to_complex(c, A)) for c in bt.enumerate_coverings(n)}
        cover_keys |= {key(bt.algebra_complex(A, d)) for d in (0, 1)}
        rec.check(brute_keys == cover_keys, f"star({n},{k}): brute force differs from coverings")
        rec.check(
            len(brute) == len(brute_keys) == comb(2 * n, n),
            f"star({n},{k}): {len(brute)} complexes, expected C({2 * n},{n})",
        )
    n, k = DIRECT_STAR
    A = bt.star_algebra(n, k)
    coverings = bt.enumerate_coverings(n)
    rec.check(len(coverings) + 2 == comb(2 * n, n), f"star({n},{k}): {len(coverings)} coverings")
    for i, perm in inputs["decisions"]:
        if i >= len(coverings):
            rec.check(False, f"star({n},{k}): covering {i} missing")
            continue
        parts = bt.endo.summand_complexes(bt.covering_to_complex(coverings[i], A))
        T = bt.direct_sum([parts[j] for j in perm])
        with rec.timed(f"covering/{i}"):
            ok = bt.is_tilting(T, direct=True)
        rec.check(ok, f"star({n},{k}): covering {i} with summands {perm} not tilting")


def tree_roundtrip(bt, inputs, rec: Recorder) -> None:
    """Census of 5-edge Brauer trees, then realize and decode every census
    tree and every seeded random tree; one item per round trip."""
    trees = []  # (item key, tree); random trees differ from pass to pass
    for k, expected in CENSUS_COUNTS.items():
        census = bt.all_brauer_trees(CENSUS_EDGES, k)
        rec.check(len(census) == expected, f"({CENSUS_EDGES},{k}): {len(census)} trees, expected {expected}")
        trees.extend((f"census/{k}/{i}", tree) for i, tree in enumerate(census))
    trees.extend(
        (f"random/{inputs['pass']}/{i}", tree) for i, tree in enumerate(inputs["random_trees"])
    )
    stars = {}
    for key, tree in trees:
        shape = (tree.n, tree.multiplicity)
        if shape not in stars:
            stars[shape] = bt.star_algebra(*shape)
        with rec.timed(key):
            T = bt.realize(tree, stars[shape])
            back, _ = bt.endo_brauer_tree(T, method="both")
        rec.check(back.is_isomorphic_to(tree), f"{shape}: round trip changed {tree.canonical_key()}")


WORKLOADS = {
    "verify-cold": (verify_inputs, verify_cold),
    "tilting-oracle": (oracle_inputs, tilting_oracle),
    "tree-roundtrip": (roundtrip_inputs, tree_roundtrip),
}
