"""Acceptance battery: each test runs one headline guarantee at full scale
and prints a PASS/FAIL line.  All tolerances are exact (zero mismatches);
the stated runtime budgets are asserted where they exist.
"""

import hashlib
import time

from brauertilt import coverings, verify
from brauertilt.verify import (
    FIELD_PRIMES,
    SUITES,
    field_independence,
    run_suite,
)

# First 16 hex digits of the sha256 of repr(SuiteResult.fingerprint), recorded
# from the package as first committed; every suite gave the same digest at
# p = 2, 3 and 32003.  A change that moves one must be a named bug fix.
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


def fingerprint_digest(fingerprint) -> str:
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()[:16]


def _report(number, name, result, elapsed, budget=None):
    status = "PASS" if result.ok else "FAIL"
    print(f"{status} criterion {number} ({name}): {'; '.join(result.lines)} "
          f"[{elapsed:.1f}s]")
    if result.failures:
        for f in result.failures[:5]:
            print(f"  counterexample: {f!r}")
    assert result.ok, f"criterion {number} failed: {result.failures[:5]}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def test_criterion_01_presentation_criterion_equivalence():
    t0 = time.time()
    res = run_suite("presentation-criterion")
    _report(1, "module test equals chain-map test", res, time.time() - t0, budget=300)


def test_criterion_02_socle_quotient_classification():
    t0 = time.time()
    res = run_suite("socle-quotient")
    _report(2, "failures are exactly P/soc(P)", res, time.time() - t0)


def test_criterion_03_length_bound():
    t0 = time.time()
    res = run_suite("length-bound")
    _report(3, "partial tilting iff length below n", res, time.time() - t0)


def test_criterion_04_shift_duality():
    t0 = time.time()
    res = run_suite("shift-duality")
    _report(4, "Hom(T,T[1]) = Hom(T,T[-1]) on the corpus", res, time.time() - t0)


def test_criterion_05_covering_bijection():
    t0 = time.time()
    res = run_suite("covering-bijection")
    _report(5, "coverings biject with tilting complexes", res, time.time() - t0,
            budget=600)


def test_criterion_06_hom_dimension_tables():
    t0 = time.time()
    res = run_suite("hom-tables")
    _report(6, "summand-pair Hom tables", res, time.time() - t0)


def test_criterion_07_euler_pairing():
    t0 = time.time()
    res = run_suite("euler-pairing")
    _report(7, "alternating sum equals shift-zero Hom", res, time.time() - t0)


def test_criterion_08_worked_example_golden():
    t0 = time.time()
    res = run_suite("line-example")
    _report(8, "4-gon worked example", res, time.time() - t0)
    # exact match against the committed golden file
    import json
    from pathlib import Path

    from brauertilt.algebra import star_algebra
    from brauertilt.coverings import covering_to_complex
    from brauertilt.endo import endo_brauer_tree, endo_cartan
    from brauertilt.jsonio import covering_from_json, tree_to_dot, tree_to_json

    golden = json.loads(
        (Path(__file__).parent / "golden" / "line_example.json").read_text()
    )
    A = star_algebra(4, 1)
    T = covering_to_complex(covering_from_json(golden["covering"]), A)
    assert [l.display() for l in T.labels] == golden["summands"]
    assert endo_cartan(T) == golden["endo_cartan"]
    tree, label_map = endo_brauer_tree(T, method="both")
    edge_labels = {e: label_map[e].display() for e in label_map}
    assert tree_to_json(tree, edge_labels) == golden["endo_tree"]
    assert tree_to_dot(tree, edge_labels) == golden["endo_tree_dot"]


def test_criterion_09_realization_roundtrip():
    t0 = time.time()
    res = run_suite("realization-roundtrip")
    _report(9, "endomorphism tree of realize(tree) is the tree", res,
            time.time() - t0, budget=600)


def test_criterion_10_star_autoequivalences():
    t0 = time.time()
    res = run_suite("star-autoequivalences")
    _report(10, "2n self-equivalence coverings at multiplicity 1, none at 2",
            res, time.time() - t0)
    for n, k, hits in res.fingerprint:
        assert len(hits) == (2 * n if k == 1 else 0)


def test_criterion_11_field_independence():
    t0 = time.time()
    ok, table = field_independence()
    elapsed = time.time() - t0
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion 11 (field independence over primes "
          f"{FIELD_PRIMES}) [{elapsed:.1f}s]")
    assert sorted(table) == sorted(SUITE_DIGESTS) == sorted(SUITES)
    for name, prints in sorted(table.items()):
        same = all(fp == prints[0] for fp in prints[1:])
        print(f"  {name}: {'identical' if same else 'DIFFERS'}")
        assert same, f"suite {name} gives prime-dependent output"
        for p, fp in zip(FIELD_PRIMES, prints):
            assert fingerprint_digest(fp) == SUITE_DIGESTS[name], (
                f"suite {name} at p = {p} moved from its recorded fingerprint"
            )
    assert ok


def test_fingerprints_do_not_depend_on_suite_order(monkeypatch):
    """Every suite, run cold in reverse order at the default prime, gives
    its recorded digest: no cache shared between suites, such as one on an
    algebra that an earlier suite warmed, moves a fingerprint."""
    monkeypatch.setattr(verify, "_MEMO", {})
    monkeypatch.setattr(verify, "_ALGEBRAS", {})
    coverings._inner_families.cache_clear()
    for name in sorted(SUITES, reverse=True):
        res = run_suite(name)
        assert res.ok, (name, res.failures[:5])
        assert fingerprint_digest(res.fingerprint) == SUITE_DIGESTS[name], name
