"""brauertilt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs child.py in a fresh
interpreter, one at a time, so every pass starts with cold caches and the
load is one process.  Rounds of passes repeat for about S seconds (at least
MIN_ROUNDS rounds).  Pass i of a run draws its inputs from (seed, i), so a
run pools distinct random inputs and the same seed repeats them.  With
--trace 0 the result holds the end-to-end metrics over the passes (see
MEDIANS); with --trace 1 untraced and traced passes alternate and the result
holds the per-layer metrics of the traced passes.
The last line of standard output is the result as one JSON object; the line
before it records the workload, seed, pass counts, the median raw pass time,
the host's slowdown and any failed checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import REFERENCE_S  # noqa: E402
from workloads import SUITE_DIGESTS, WORKLOADS  # noqa: E402

MIN_ROUNDS = {0: 3, 1: 2}  # a traced round is one untraced and one traced pass
DEADLINE_S = 170  # a run must end within 180 s; a pass still running here is killed

# MEDIANS: every timing of a pass is scaled to the reference speed
# (speed.py), because this host's cores switch between a fast state and
# states up to 2x slower, every few seconds or for minutes at a time.  A
# run reports the median over its passes of run_s, setup_s and peak_rss_mb.
# item_p50_ms and item_p95_ms pool the unit answers of all passes, a key
# asked in several passes counting each time at its median over them.

# Per-layer metrics: (span name, fields) with the fields each span reports.
SPAN_FIELDS = (
    ("linalg.rref", ("calls", "self_s", "cells")),
    ("complexes.chain_map_space", ("calls", "self_s", "unknowns")),
    ("complexes.hom_dim", ("calls", "self_s")),
    ("algebra.build", ("calls", "self_s", "max_dim")),
    ("trees.enumerate", ("self_s", "trees")),
    ("trees.canonical_key", ("calls",)),
    ("modules.presentation", ("calls", "self_s")),
    ("modules.syzygy", ("self_s",)),
    ("modules.hom_dim", ("self_s",)),
    ("modules.indecomposables", ("self_s",)),
    ("tilting.is_tilting", ("calls", "self_s")),
    ("tilting.module_test", ("self_s",)),
    ("coverings.enumerate", ("self_s",)),
    ("coverings.to_complex", ("self_s",)),
    ("coverings.bruteforce", ("self_s",)),
    ("endo.generic", ("self_s",)),
    ("endo.fast", ("self_s",)),
    ("endo.validate", ("self_s",)),
    ("endo.cartan", ("self_s",)),
    ("realization.realize", ("self_s",)),
)
LAYERS = (
    "linalg", "complexes", "algebra", "trees", "modules",
    "tilting", "coverings", "endo", "realization", "verify",
)
SUITES = tuple(sorted(SUITE_DIGESTS))

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "item_p50_ms": "ms",
    "item_p95_ms": "ms",
}
PER_LAYER_UNITS = {
    **{
        f"{span}.{field}": "s" if field == "self_s" else "count"
        for span, fields in SPAN_FIELDS
        for field in fields
    },
    "complexes.spaces_per_hom": "ratio",
    **{f"layer.{layer}.self_share": "share" for layer in LAYERS},
    **{f"verify.{suite}.s": "s" for suite in SUITES},
    "trace.overhead": "share",
    "checks.failed_share": "share",
}


def run_pass(workload: str, seed: int, index: int, trace: bool, timeout: float) -> dict:
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(seed % 2**32),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--pass-index", str(index),
        "--trace", str(int(trace)),
        "--spawned", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def item_latencies(passes: list[dict]) -> list[float]:
    """Every unit answer of every pass, in ms; a key asked in several passes
    counts each time at its median over them."""
    by_key: dict[str, list[float]] = {}
    for p in passes:
        for key, seconds in p["items"].items():
            by_key.setdefault(key, []).append(seconds * 1e3)
    return [statistics.median(repeats) for repeats in by_key.values() for _ in repeats]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    items = item_latencies(passes)
    return {
        "run_s": statistics.median(p["run_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "item_p50_ms": statistics.median(items),
        "item_p95_ms": statistics.quantiles(items, n=100)[94],
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    def median_of(value):
        return statistics.median(value(p) for p in traced)

    out = {}
    for span, fields in SPAN_FIELDS:
        for field in fields:
            out[f"{span}.{field}"] = median_of(lambda p: p["stats"].get(span, {}).get(field, 0))

    def spaces_per_hom(p):
        calls = p["stats"].get("complexes.hom_dim", {}).get("calls", 0)
        inside = p["stats"].get("complexes.chain_map_space", {}).get("in_hom", 0)
        return inside / calls if calls else 0.0

    out["complexes.spaces_per_hom"] = median_of(spaces_per_hom)
    for layer in LAYERS:
        out[f"layer.{layer}.self_share"] = median_of(
            lambda p: p["layers"].get(layer, 0.0) / p["raw_run_s"]
        )
    for suite in SUITES:
        out[f"verify.{suite}.s"] = median_of(lambda p: p["items"].get(f"verify.{suite}", 0.0))
    out["trace.overhead"] = (
        median_of(lambda p: p["run_s"]) / statistics.median(p["run_s"] for p in untraced) - 1
    )
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "brauertilt" / "__init__.py").is_file():
        raise SystemExit(f"no brauertilt sources under {ROOT / 'src'}")

    untraced, traced = [], []
    start = time.monotonic()
    rounds, round_s = 0, 0.0
    # another round starts while it would end at most half a round after S
    while rounds < MIN_ROUNDS[args.trace] or time.monotonic() - start + round_s / 2 < args.seconds:
        round_start = time.monotonic()
        # a traced round alternates which side of the pair runs first
        sides = ((False, True) if rounds % 2 == 0 else (True, False)) if args.trace else (False,)
        for trace in sides:
            timeout = DEADLINE_S - (time.monotonic() - start)
            result = run_pass(args.workload, args.seed, rounds, trace, timeout)
            (traced if trace else untraced).append(result)
        rounds += 1
        round_s = time.monotonic() - round_start

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if args.trace:
        values = per_layer(traced, untraced)
        values["checks.failed_share"] = len(failures) / attempted if attempted else 1.0
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(untraced)
        units = END_TO_END_UNITS
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "items_per_pass": len(untraced[0]["items"]),
        "raw_run_s": statistics.median(p["raw_run_s"] for p in untraced),
        # the reference kernel's median time over REFERENCE_S: the host's slowdown
        "host_slowdown": statistics.median(p["kernel_s"] for p in untraced) / REFERENCE_S,
        "failures": sorted(set(failures))[:20],
    }))
    print(json.dumps({
        "correct": attempted > 0 and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
