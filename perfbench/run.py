"""Benchmark command: one workload, one seed, one JSON line of metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-pfc-clos64 --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the per-layer metrics: spans around the calls
the benchmark makes into each layer, the tracing overhead, and a
profiled simulator run; the spans are written to ``perfbench/out/``.
``BENCHMARK.json`` names the metrics of each mode and their units.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every output check passed and
no operation failed. ``--smoke`` shrinks every workload so the
benchmark's own tests run in seconds; ``--fault`` injects one of the
seeded faults those tests use.
"""

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def load_spec() -> Dict[str, Any]:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def select_metrics(spec: Dict[str, Any], computed: Dict[str, float],
                   trace: bool) -> Dict[str, Dict[str, Any]]:
    """The metrics of one mode, by name with unit, from what a run computed.

    A per-layer metric a workload did not compute is 0: that layer did no
    work in it. Every end-to-end metric must have been measured.
    """
    known = {m["name"] for m in spec["end_to_end"]} | {m["name"] for m in spec["per_layer"]}
    unknown = sorted(set(computed) - known)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out: Dict[str, Dict[str, Any]] = {}
    for metric in wanted:
        name = metric["name"]
        if name not in computed and not trace:
            raise KeyError(f"end-to-end metric {name} was not measured")
        out[name] = {"value": float(computed.get(name, 0.0)), "unit": metric["unit"]}
    return out


def parse_args(argv: Optional[List[str]], workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fabric and durations, for the benchmark's tests")
    parser.add_argument("--fault", default=None,
                        help="inject a seeded fault (self-test of the output checks)")
    return parser.parse_args(argv)


def import_workloads() -> Any:
    """Import the workloads against the checkout's own program source."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise FileNotFoundError(f"no program source at {SRC}; run from a full checkout")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


def main(argv: Optional[List[str]] = None) -> int:
    try:
        workloads = import_workloads()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    if args.fault is not None and args.fault not in workloads.FAULTS[args.workload]:
        print(f"error: {args.workload} has no fault {args.fault!r}; "
              f"choose from {workloads.FAULTS[args.workload]}", file=sys.stderr)
        return EXIT_USAGE
    profile = workloads.SMOKE if args.smoke else workloads.FULL
    spec = load_spec()

    result = workloads.WORKLOADS[args.workload](
        profile, args.seed, args.seconds, bool(args.trace), fault=args.fault
    )
    metrics = select_metrics(spec, result.metrics, bool(args.trace))
    if result.tracer is not None:
        result.tracer.write(os.path.join(
            HERE, "out", f"spans-{args.workload}-seed{args.seed}.json"))

    error_share = result.failed / max(result.attempted, 1)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    headline = dict(result.headline, peak_rss_mb=(result.metrics["peak_rss_mb"], "MB"))
    for name, (value, unit) in headline.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  error_share = {error_share:.6g} ratio "
          f"({result.failed} failed of {result.attempted})")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not result.problems and result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": metrics,
    }))
    return EXIT_OK if correct else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
