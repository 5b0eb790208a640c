"""The repository's benchmark: one workload, one run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload conv_swarm --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` also measures a traced window on a fresh system at the same
seed, runs it again on another to check that its seed-only counts repeat,
and prints every per-layer metric instead (spans are written to
``.perfbench/``).  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
the host (cores, crypto backend, optional accelerators) and the window.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_NAMES = ("conv_swarm", "conv_swarm_papernoise", "clients_dialing", "conv_swarm_tcp")


def run(workload_name: str, seed: int, trace: bool, tiny: bool) -> tuple[dict, dict]:
    from repro.crypto import active_backend

    from gates import (
        Tally,
        check_counts,
        fail_upper_bound,
        gate_precompute_identity,
        gate_swarm_identity,
    )
    from spans import SpanRecorder
    from workloads import DETERMINISTIC, FULL, TINY, WORKLOADS, end_to_end, per_layer

    tally = Tally()
    gate_swarm_identity(tally, seed)
    gate_precompute_identity(tally, seed)

    workload = WORKLOADS[workload_name](seed, TINY if tiny else FULL)
    recorder = SpanRecorder()
    try:
        setup_s = workload.setup(tally)
        window = workload.measure(tally, SpanRecorder(), traced=False)
        workload.final_checks(tally)
        if trace:
            # Every traced window starts where the untraced one did: on a
            # freshly built system at the same seed, after its warm-up round.
            workload.rebuild(tally)
            traced = workload.measure(tally, recorder, traced=True)
            workload.final_checks(tally)
            if workload.deterministic:
                workload.rebuild(tally)
                replay = workload.measure(tally, SpanRecorder(), traced=True)
    finally:
        workload.close()

    if trace:
        overhead = 1.0 - traced.msgs_per_s / window.msgs_per_s
        metrics = per_layer(traced, workload.layer_counts(), overhead)
        if workload.deterministic:
            replayed = per_layer(replay, {}, 0.0)
            check_counts(
                tally,
                {name: metrics[name][0] for name in DETERMINISTIC},
                {name: replayed[name][0] for name in DETERMINISTIC},
            )
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        recorder.write(out / f"trace-{workload_name}-seed{seed}.jsonl")
    else:
        fail_frac = fail_upper_bound(tally.failed, tally.attempted)
        metrics = end_to_end(setup_s, window, workload.dial_times, fail_frac)
    tally.report()

    info = {
        "workload": workload_name,
        "seed": seed,
        "environment": {
            "cpu_count": os.cpu_count(),
            "crypto_backend": active_backend().name,
            "numpy": importlib.util.find_spec("numpy") is not None,
            "uvloop": importlib.util.find_spec("uvloop") is not None,
        },
        "window": {
            "seconds": window.seconds,
            "delivered": window.delivered,
            "conversation_rounds": len(window.durations("round.conversation")),
            "dialing_rounds": len(window.durations("round.dialing")),
        },
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    return info, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    # Accepted for the benchmark harness; each window is a fixed number of
    # calls (``Scale`` in workloads.py), not a span of time.
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(HERE)]
    info, result = run(args.workload, args.seed, bool(args.trace), args.tiny)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
