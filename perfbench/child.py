"""One benchmark pass in a fresh interpreter, started by run.py.

The pass imports brauertilt from the checkout's src/, builds the inputs of
its seed and pass index, checks that the package's hidden caches are empty,
runs one workload and prints one JSON line with its timings, checks and (traced
passes only) layer statistics.  Set-up time runs from the moment run.py
spawned this process (--spawned, a time.monotonic() reading) to the end of
input building.  Set-up, run and item times are scaled to the reference
speed by a SpeedMeter (speed.py) that runs for the whole pass; raw_run_s
and the layer self times are raw, less the meter's own time.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedMeter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def check_cold(bt) -> None:
    """Raise unless the caches that outlive a call start empty."""
    warm = [
        name
        for name, size in (
            ("verify._MEMO", len(bt.verify._MEMO)),
            ("verify._ALGEBRAS", len(bt.verify._ALGEBRAS)),
            ("coverings._inner_families", bt.coverings._inner_families.cache_info().currsize),
        )
        if size
    ]
    if warm:
        raise RuntimeError(f"caches not cold at the start of the pass: {', '.join(warm)}")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args()

    meter = SpeedMeter()
    meter.start()
    spawned = meter.clock() - (time.monotonic() - args.spawned - meter.paused)

    sys.path.insert(0, str(SRC))
    import brauertilt as bt
    import brauertilt.verify  # noqa: F401  (not imported by the package itself)

    if Path(bt.__file__).resolve().parent != (SRC / "brauertilt").resolve():
        raise SystemExit(f"brauertilt imported from {bt.__file__}, not from {SRC}")

    from inputs import pass_rng
    from layertrace import Tracer
    from workloads import WORKLOADS, Recorder

    make_inputs, workload = WORKLOADS[args.workload]
    inputs = make_inputs(bt, pass_rng(args.seed, args.pass_index))
    inputs["pass"] = args.pass_index
    setup_end = meter.clock()

    tracer = None
    if args.trace:
        tracer = Tracer(clock=meter.clock)
        tracer.install()
    check_cold(bt)
    rec = Recorder(tracer, clock=meter.clock)
    start = meter.clock()
    workload(bt, inputs, rec)
    end = meter.clock()
    meter.stop()

    out = {
        "setup_s": meter.scaled(spawned, setup_end),
        "run_s": meter.scaled(start, end),
        "raw_run_s": end - start,
        "kernel_s": statistics.median(k for _, k in meter.readings),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": {key: meter.scaled(a, b) for key, (a, b) in rec.items.items()},
        "attempted": rec.attempted,
        "failures": rec.failures,
    }
    if tracer is not None:
        tracer.check_bindings()
        out["stats"] = tracer.stats
        out["layers"] = tracer.layer_self_seconds()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
