"""Run one workload of the QUEST benchmark and print its metrics.

Usage, from the repository root::

    python3 questbench/run.py --workload cold_http --seed 1 --seconds 16 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is a diagnostic object (tail percentile, sample
counts, host calibration, notes) that no gate reads. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import Any

import layers
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HTTP = ("cold_http", "hot_http")
OLTP = ("oltp_sqlite", "oltp_memory")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "search_p50_ms": "ms",
    "search_tail_ms": "ms",
    "rss_mb": "MB",
}


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes (host-drift diagnostic;
    never used to scale a metric)."""
    start = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i * i
    return time.perf_counter() - start


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=HTTP + OLTP)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _summary(name: str, out: dict[str, Any]) -> dict[str, Any]:
    result = out["result"]
    figures = out["figures"]
    searches = [t * 1000.0 for t in result.search]
    tail_pct = stats.tail_percentile(len(searches))
    e2e = {
        "setup_s": figures["setup_s"],
        "ops_per_s": result.attempted / result.wall_s,
        "search_p50_ms": stats.median(searches),
        "search_tail_ms": (
            stats.percentile(searches, tail_pct) if tail_pct else max(searches)
        ),
        "rss_mb": figures["rss_mb"],
    }
    replays = getattr(result, "per_replay", None)
    if replays:
        # The oltp workloads replay their op list; each timing metric is
        # the median replay's, and the tail is taken within a replay.
        for key in ("ops_per_s", "search_p50_ms", "search_tail_ms"):
            e2e[key] = stats.median([replay[key] for replay in replays])
        tail_pct = replays[0]["tail_percentile"]
    extra: dict[str, float] = {}
    if name in OLTP:
        extra["write.p50_ms"] = stats.median([t * 1000.0 for t in result.write])
        extra["write.fresh_read_p50_ms"] = stats.median([t * 1000.0 for t in result.fresh])
    percentiles = {
        f"p{pct:g}": stats.percentile(searches, pct) for pct in (50, 90, 95, 99, 99.9)
    }
    return {
        "e2e": e2e,
        "percentiles_ms": percentiles,
        "extra": extra,
        "tail_percentile": tail_pct,
        "searches": len(searches),
        "per_replay": replays,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"questbench: no program source under {ROOT / 'src'}; "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload in HTTP:
        import http_bench as bench
    else:
        import oltp_bench as bench

    # A terminated run still unwinds, so every fleet it forked is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = ROOT / ".questbench" / f"run-{os.getpid()}"
    calibration = [calibrate()]
    try:
        out = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calibration.append(calibrate())

    passes = [out["result"]] + ([out["traced"]] if "traced" in out else [])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = sum(p.wrong for p in passes)
    summary = _summary(args.workload, out)
    if args.trace:
        report = out["report"]
        report.update(summary["extra"])
        report["host.calibration_s"] = sum(calibration) / len(calibration)
        metrics = {
            name: {"value": float(report.get(name, 0.0)), "unit": unit}
            for name, unit in layers.PER_LAYER.items()
        }
        summary["stage_shares"] = layers.stage_shares(report)
    else:
        metrics = {
            name: {"value": float(summary["e2e"][name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    diagnostic = {
        "workload": args.workload,
        "seed": args.seed,
        "searches": summary["searches"],
        "tail_percentile": summary["tail_percentile"],
        "calibration_s": calibration,
        "wrong": wrong,
        "refreshes": getattr(out["result"], "refreshes", 0),
        "per_replay": summary["per_replay"],
        "e2e": summary["e2e"],
        "percentiles_ms": summary["percentiles_ms"],
        "stage_shares": summary.get("stage_shares"),
        "extra": summary["extra"],
        "notes": [note for p in passes for note in p.notes][:10],
    }
    print(json.dumps({"diagnostic": diagnostic}))
    print(
        json.dumps(
            {
                "correct": wrong == 0 and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
