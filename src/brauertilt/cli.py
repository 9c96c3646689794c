"""Command line interface.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import DEFAULT_PRIME, build_tree_algebra, star_algebra
from .complexes import algebra_complex
from .coverings import (
    complex_label_key,
    covering_to_complex,
    enumerate_coverings,
    enumerate_two_term_tilting_bruteforce,
)
from .endo import a_cycle_partition, endo_brauer_tree, tree_from_cycles
from .jsonio import (
    SchemaError,
    complex_to_json,
    covering_from_json,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
)
from .realization import realize
from .verify import FIELD_PRIMES, SUITES, field_independence, run_suite


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(path, "file not found")
    except OSError as exc:
        raise SchemaError(path, f"cannot read: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON: {exc}")


def cmd_algebra(args) -> int:
    tree = tree_from_json(_load_json(args.tree))
    A = build_tree_algebra(tree, args.field_prime)
    cartan = A.cartan_matrix()
    report = {
        "edges": A.edges,
        "dim": A.dim,
        "cartan": cartan,
        "projective_dims": {str(e): A.dim_projective(e) for e in A.edges},
        "basis": {
            "idempotents": A.n,
            "proper_paths": sum(1 for pc in A.basis if pc.kind == "p"),
            "socles": A.n,
        },
        "field_prime": A.prime,
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"algebra with {A.n} simples, dimension {A.dim} over F_{A.prime}")
        for row in cartan:
            print("  " + " ".join(f"{x:3d}" for x in row))
        for e in A.edges:
            print(f"  dim P_{e} = {A.dim_projective(e)}")
    return 0


def cmd_enumerate_tilting(args) -> int:
    n, k = args.n, args.k
    A = star_algebra(n, k, args.field_prime)
    out = {"n": n, "k": k}
    exit_code = 0
    cov_keys = None
    brute_keys = None
    if args.mode in ("coverings", "both"):
        covs = enumerate_coverings(n)
        cov_keys = sorted(
            complex_label_key(covering_to_complex(c, A)) for c in covs
        )
        special = sorted(
            complex_label_key(algebra_complex(A, d)) for d in (0, 1)
        )
        out["coverings"] = len(covs)
        out["total_from_coverings"] = len(covs) + 2
        cov_keys = sorted(cov_keys + special)
    if args.mode in ("brute", "both"):
        brute = enumerate_two_term_tilting_bruteforce(A)
        brute_keys = sorted(complex_label_key(T) for T in brute)
        out["brute_total"] = len(brute)
    if args.mode == "both":
        out["match"] = cov_keys == brute_keys
        if not out["match"]:
            exit_code = 1
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        for key, val in sorted(out.items()):
            print(f"{key}: {val}")
        listing = brute_keys if brute_keys is not None else cov_keys
        for key in listing:
            print("  " + " + ".join("/".join(map(str, part)) for part in key))
    return exit_code


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    if args.suite == "field-independence":
        ok, table = field_independence()
        for name, prints in sorted(table.items()):
            same = all(fp == prints[0] for fp in prints[1:])
            print(f"{'PASS' if same else 'FAIL'} {name}: fingerprints "
                  f"{'agree' if same else 'differ'} across primes {FIELD_PRIMES}")
        print("PASS field-independence" if ok else "FAIL field-independence")
        return 0 if ok else 1
    if args.suite != "all" and args.suite not in SUITES:
        print(
            f"error: unknown suite '{args.suite}'; choose from "
            f"{', '.join(sorted(SUITES) + ['field-independence', 'all'])}",
            file=sys.stderr,
        )
        return 2
    results = {name: run_suite(name, prime=args.field_prime) for name in names}
    if args.json:
        print(
            json.dumps(
                [
                    {"suite": name, "ok": res.ok, "detail": res.lines,
                     "counterexamples": [repr(f) for f in res.failures[:10]]}
                    for name, res in results.items()
                ],
                indent=2,
            )
        )
    else:
        for name, res in results.items():
            print(f"{'PASS' if res.ok else 'FAIL'} {name}: {'; '.join(res.lines)}")
            for f in res.failures[:10]:
                print(f"  counterexample: {f!r}")
    return 0 if all(res.ok for res in results.values()) else 1


def cmd_endo(args) -> int:
    cov = covering_from_json(_load_json(args.covering), n=args.n)
    A = star_algebra(args.n, args.k, args.field_prime)
    T = covering_to_complex(cov, A)
    cycles = a_cycle_partition(T, method="both")
    tree, label_map = tree_from_cycles(T, cycles)
    edge_labels = {e: label_map[e].display() for e in label_map}
    witness_log = [
        {
            "members": [label_map[i].display() for i in cyc.members],
            "exceptional": cyc.exceptional,
            "nonzero_compositions": (
                len(cyc.members) * (A.tree.multiplicity if cyc.exceptional else 1)
            ),
        }
        for cyc in cycles
    ]
    if args.dot:
        print(tree_to_dot(tree, edge_labels))
    else:
        doc = tree_to_json(tree, edge_labels)
        doc["summands"] = [l.display() for l in T.labels]
        doc["a_cycles"] = witness_log
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_realize(args) -> int:
    tree = tree_from_json(_load_json(args.tree))
    A = star_algebra(tree.n, tree.multiplicity, args.field_prime)
    T = realize(tree, A, stalk_degree=args.stalk_degree)
    back, label_map = endo_brauer_tree(T, method="both")
    if not back.is_isomorphic_to(tree):
        print("error: realized complex fails to reproduce the input tree", file=sys.stderr)
        return 1
    edge_labels = {e: label_map[e].display() for e in label_map}
    if args.dot:
        print(tree_to_dot(back, edge_labels))
    else:
        doc = {
            "complex": complex_to_json(T),
            "endomorphism_tree": tree_to_json(back, edge_labels),
            "roundtrip_verified": True,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brauertilt",
        description="Exact computation with Brauer tree algebras and "
        "two-term tilting complexes",
    )
    parser.add_argument("--field-prime", type=int, default=DEFAULT_PRIME,
                        help="working prime for all linear algebra")
    parser.add_argument("--json", action="store_true", help="JSON output")
    parser.add_argument("--dot", action="store_true", help="DOT output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="build an algebra from a tree file")
    p.add_argument("tree", help="path to a tree JSON file (star shorthand allowed)")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("enumerate-tilting", help="two-term tilting complexes over a star")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--mode", choices=["brute", "coverings", "both"], default="both")
    p.set_defaults(func=cmd_enumerate_tilting)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "suite",
        help="suite name, 'all', or 'field-independence'; suites: "
        + ", ".join(sorted(SUITES)),
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("endo", help="endomorphism tree of a covering's complex")
    p.add_argument("covering", help="path to a covering JSON file")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=cmd_endo)

    p = sub.add_parser("realize", help="tilting complex realizing a Brauer tree")
    p.add_argument("tree", help="path to a tree JSON file")
    p.add_argument("--stalk-degree", type=int, choices=[0, 1], default=0)
    p.set_defaults(func=cmd_realize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
