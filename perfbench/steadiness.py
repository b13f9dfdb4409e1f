"""Repeat the benchmark over seeds and record how steady each metric is.

    python3 perfbench/steadiness.py --workloads offline-generate stream-cluster \
        --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/steadiness.json

Each run is ``perfbench/run.py`` in its own process, as the benchmark is
normally run.  For every end-to-end metric the record keeps the per-run
values and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, beside
each run's host-speed reading.  ``--markdown`` renders one or more
records as the tables in ``STEADINESS.md``; with more than one it adds
how far each median of every later set moved from the first set, as a
share of the first, in the direction that counts as worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - started
    if result.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {result.returncode}:\n{result.stderr}")
    lines = result.stdout.strip().splitlines()
    report = json.loads(lines[-2])["perfbench_report"]
    final = json.loads(lines[-1])
    return {
        "seed": seed,
        "wall_s": wall,
        "correct": final["correct"],
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": {k: v["value"] for k, v in final["metrics"].items()},
        "host_speed": report["host_speed"],
    }


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for metric in metrics:
        values = [run["metrics"][metric["name"]] for run in runs]
        summary[metric["name"]] = {
            "median": statistics.median(values),
            "iqr_over_median": spread(values),
            "bound": metric["bound"],
        }
    return summary


def markdown(record: dict, title: str) -> str:
    metrics = [m["name"] for m in spec()["end_to_end"]]
    lines = [f"## {title}\n"]
    for workload, block in record["workloads"].items():
        lines.append(f"### {workload} ({len(block['runs'])} runs, `--seconds {record['seconds']}`)\n")
        lines.append(
            "| seed | " + " | ".join(metrics)
            + " | correct (failed/attempted) | loop ms start/end | zlib ms start/end"
            + " | steal % | wall s |"
        )
        lines.append("|" + "---|" * (len(metrics) + 6))
        for run in block["runs"]:
            host = run["host_speed"]
            cells = [f"{run['metrics'][m]:.4g}" for m in metrics]
            lines.append(
                f"| {run['seed']} | " + " | ".join(cells)
                + f" | {run['correct']} ({run['failed']}/{run['attempted']})"
                + f" | {host['calibration_ms_start']:.1f}/{host['calibration_ms_end']:.1f}"
                + f" | {host['zlib_ms_start']:.1f}/{host['zlib_ms_end']:.1f}"
                + f" | {host['steal_pct']:.1f} | {run['wall_s']:.0f} |"
            )
        cells = [f"**{block['summary'][m]['iqr_over_median']:.3f}**" for m in metrics]
        lines.append("| IQR/median | " + " | ".join(cells) + " | | | | | |")
        lines.append("")
    return "\n".join(lines)


def drift(first: dict, second: dict, title: str) -> str:
    """Worsening of each median from the first set to a later one, over
    the workloads both sets ran."""
    spec_metrics = spec()["end_to_end"]
    lines = [f"## {title}\n"]
    lines.append("| workload | " + " | ".join(m["name"] for m in spec_metrics) + " |")
    lines.append("|" + "---|" * (len(spec_metrics) + 1))
    for workload, block in first["workloads"].items():
        if workload not in second["workloads"]:
            continue
        cells = []
        for metric in spec_metrics:
            a = block["summary"][metric["name"]]["median"]
            b = second["workloads"][workload]["summary"][metric["name"]]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            cells.append(f"{worse:+.3f} (bound {metric['bound']})")
        lines.append(f"| {workload} | " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    parser.add_argument("--out", type=Path, help="write the record here (JSON)")
    parser.add_argument("--markdown", type=Path, nargs="+", help="render records and exit")
    args = parser.parse_args()
    if args.markdown:
        records = [json.loads(path.read_text()) for path in args.markdown]
        for number, record in enumerate(records, start=1):
            print(markdown(record, f"Set {number}"))
        for number, record in enumerate(records[1:], start=2):
            print(drift(records[0], record, f"Set {number} against set 1"))
        return 0

    metrics = spec()["end_to_end"]
    record = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            run = one_run(workload, seed, args.seconds)
            runs.append(run)
            print(workload, seed, json.dumps(run["metrics"]), flush=True)
        summary = summarize(runs, metrics)
        record["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, row in summary.items():
            flag = "" if row["iqr_over_median"] < row["bound"] / 3 else "  <-- above a third of bound"
            print(f"  {workload} {name}: IQR/median {row['iqr_over_median']:.4f}{flag}", flush=True)
        if args.out:
            args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
