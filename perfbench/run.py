"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload offline-generate --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans; ``--trace 1``
is the separate traced run that reports the per-layer metrics (every
layer, whichever workload is named) and the named workload's tracing
overhead.  ``--workload all`` runs every workload in turn.  The last line
of standard output is the result object; the lines before it describe the
run (environment, host-speed reading, sample counts, checks).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402

WORKLOADS = ("offline-generate", "stream-cluster", "service-mix")


class Context:
    """The 300-app corpus at corpus seed 7, built before any timing."""

    def __init__(self) -> None:
        from repro import build_corpus

        corpus = build_corpus(n_apps=300, seed=7)
        self.trace = corpus.trace
        self.check = corpus.payload_check()
        self.suspicious, self.normal = self.check.split(self.trace)


def _modules():
    import offline
    import service
    import stream

    return {"offline-generate": offline, "stream-cluster": stream, "service-mix": service}


def run_workload(ctx, workload: str, seed: int, seconds: float, trace: bool):
    modules = _modules()
    if not trace:
        return modules[workload].measure(ctx, seed, seconds)
    out = measure.Outcome()
    spans = measure.Spans()
    for name, module in modules.items():
        module.layers(ctx, seed, seconds, spans, out, compare=name == workload)
    return out


def _load_program() -> bool:
    package = measure.SRC / "repro"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no program at {package}", file=sys.stderr)
        return False
    sys.path.insert(0, str(measure.SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {package}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _load_program():
        return 2

    host = measure.HostSpeed()
    ctx = Context()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {
        name: run_workload(ctx, name, args.seed, args.seconds, bool(args.trace))
        for name in workloads
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": measure.environment(),
        "host_speed": host.finish(),
        "runs": {
            name: {
                "attempted": out.attempted,
                "failed": out.failed,
                "checks": out.checks,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
                "samples": {
                    k: measure.describe(v) for k, v in out.details.pop("samples", {}).items()
                },
                **out.details,
            }
            for name, out in outcomes.items()
        },
    }
    print(json.dumps({"perfbench_report": report}, sort_keys=True))

    prefix = len(outcomes) > 1
    metrics = {
        (f"{name}.{key}" if prefix else key): {"value": value, "unit": unit}
        for name, out in outcomes.items()
        for key, (value, unit) in out.metrics.items()
    }
    attempted = sum(out.attempted for out in outcomes.values())
    failed = sum(out.failed for out in outcomes.values())
    correct = failed == 0 and all(all(out.checks.values()) for out in outcomes.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
