"""A/B the repository benchmark: a base revision against a change.

Extracts the base revision with ``git archive`` into a temporary
directory and runs each tree's own ``perfbench/run.py`` in alternating
base/change pairs, flipping the order every pair so slow drift of the
host hits both sides alike.  Pair ``i`` runs both sides on seed
``--seed + i``.  Prints one Markdown table per workload: per-metric
medians, the base's interquartile range, pairs won, and the verdict of
the acceptance rule (see :func:`verdict`).

Run from anywhere inside a checkout::

    python3 scripts/perf_ab.py --base HEAD~1 --workload small-n-sweep \\
        --pairs 10 --seed 1901
    python3 scripts/perf_ab.py --base HEAD --change HEAD --workload fleet \\
        --pairs 3 --seconds 4          # an A/A check

Without ``--change`` the change side is the working tree as it is.
With ``--trace 1`` the table holds the per-layer metrics instead, and
the work counters must be exactly equal in every pair.  The script only
calls perfbench; it never edits it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

#: Per-layer counters that count work, not time: a change that keeps
#: the work must keep them exactly.
WORK_COUNTERS = ("fastpath.lane_rounds", "adversaries.rounds_fetched")
#: Share of pairs a gain must win, and the fewest pairs that can
#: show one (with fewer, an A/A run "wins" by chance).
WIN_SHARE = 0.9
MIN_GAIN_PAIRS = 10
#: Wall budget of one perfbench run (it ends itself within 170 s).
RUN_TIMEOUT_S = 200.0


def repo_root() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], cwd=here, check=True,
        capture_output=True, text=True,
    ).stdout.strip()


def extract(root: str, rev: str, dest: str) -> str:
    """The committed files of ``rev`` in ``dest`` (``git archive``)."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=root, check=True,
        capture_output=True,
    ).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def run_perfbench(tree: str, workload: str, seed: int, seconds: float,
                  trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"perfbench failed in {tree} ({workload}, seed {seed}): "
            f"exit {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def load_metric_specs(tree: str) -> dict:
    """``{metric: {"better": ..., "bound": ... or None}}`` from
    ``BENCHMARK.json``."""
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    specs = {}
    for entry in bench.get("end_to_end", []) + bench.get("per_layer", []):
        specs[entry["name"]] = {
            "better": entry["better"], "bound": entry.get("bound"),
        }
    return specs


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def wins(base: list[float], change: list[float], better: str) -> int:
    """Pairs the change wins; ties count for neither side."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (b - c) > 0 for b, c in zip(base, change))


def verdict(base: list[float], change: list[float], better: str,
            bound: float | None, counter: bool = False) -> str:
    """The acceptance rule for one metric over paired runs.

    ``gain``: the change wins at least :data:`WIN_SHARE` of
    :data:`MIN_GAIN_PAIRS` or more pairs and its median beats the
    base's by more than the base's IQR.  ``WORSE``: the median is worse
    than the base's by more than the bound.  ``unresolved``: the base's
    IQR is wider than the bound, so staying inside the bound shows
    nothing, unless every change run beats every base run.  Work
    counters must repeat exactly.
    """
    if counter:
        return "COUNTER DIFFERS" if base != change else ""
    lower = better == "lower"
    q1, q3 = quartiles(base)
    base_med = statistics.median(base)
    gain = (base_med - statistics.median(change)) * (1 if lower else -1)
    if bound is not None and base_med and -gain / abs(base_med) > bound:
        return f"WORSE (bound {bound:.0%})"
    if (len(base) >= MIN_GAIN_PAIRS
            and wins(base, change, better) >= WIN_SHARE * len(base)
            and gain > q3 - q1):
        return "gain"
    all_better = (max(change) < min(base) if lower
                  else min(change) > max(base))
    if (bound is not None and base_med and not all_better
            and (q3 - q1) / abs(base_med) > bound):
        return "unresolved"
    return ""


def summarize(pairs: list[tuple[dict, dict]], specs: dict) -> dict:
    """Per-metric medians, quartiles and verdicts over ``(base,
    change)`` result-line pairs."""
    rows = []
    # BENCHMARK.json's order first, then any metric it does not list.
    names = sorted(
        (name for name in pairs[0][0]["metrics"]
         if all(name in side["metrics"] for pair in pairs for side in pair)),
        key=lambda name: (list(specs).index(name) if name in specs
                          else len(specs), name),
    )
    for name in names:
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        if not any(base + change):
            continue  # a layer this workload never calls
        spec = specs.get(name, {"better": "lower", "bound": None})
        rows.append({
            "metric": name,
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "base": statistics.median(base),
            "base_q": quartiles(base),
            "change": statistics.median(change),
            "change_q": quartiles(change),
            "won": wins(base, change, spec["better"]),
            "verdict": verdict(base, change, spec["better"], spec["bound"],
                               counter=name in WORK_COUNTERS),
        })
    return {
        "pairs": len(pairs),
        "rows": rows,
        "failed": [sum(p[side]["failed"] for p in pairs) for side in (0, 1)],
        "attempted": [sum(p[side]["attempted"] for p in pairs)
                      for side in (0, 1)],
        "incorrect": [sum(not p[side]["correct"] for p in pairs)
                      for side in (0, 1)],
    }


def _fmt(value: float) -> str:
    if value == 0 or abs(value) >= 100:
        return f"{value:.0f}"
    return f"{value:.3g}"


def format_table(workload: str, summary: dict) -> str:
    out = [
        f"**{workload}** ({summary['pairs']} pairs; failed operations "
        f"base {summary['failed'][0]}/{summary['attempted'][0]}, change "
        f"{summary['failed'][1]}/{summary['attempted'][1]}; incorrect runs "
        f"base {summary['incorrect'][0]}, change "
        f"{summary['incorrect'][1]})",
        "",
        "| metric | unit | base median [q1, q3] | change median [q1, q3] "
        "| change | base IQR | pairs won | verdict |",
        "|---|---|---:|---:|---:|---:|---:|---|",
    ]
    for row in summary["rows"]:
        base, (bq1, bq3) = row["base"], row["base_q"]
        cq1, cq3 = row["change_q"]
        delta = (f"{100.0 * (row['change'] - base) / abs(base):+.1f}%"
                 if base else "n/a")
        iqr = _fmt(bq3 - bq1)
        if base:
            iqr += f" ({100.0 * (bq3 - bq1) / abs(base):.0f}%)"
        out.append(
            f"| {row['metric']} | {row['unit']} "
            f"| {_fmt(base)} [{_fmt(bq1)}, {_fmt(bq3)}] "
            f"| {_fmt(row['change'])} [{_fmt(cq1)}, {_fmt(cq3)}] "
            f"| {delta} | {iqr} | {row['won']}/{summary['pairs']} "
            f"| {row['verdict']} |"
        )
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="base revision (any git revision)")
    parser.add_argument("--change",
                        help="change revision (default: the working tree)")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair; pair i uses seed+i")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = repo_root()
    workdir = tempfile.mkdtemp(prefix="perf-ab-")
    try:
        base = extract(root, args.base, os.path.join(workdir, "base"))
        change = (root if args.change is None
                  else extract(root, args.change,
                               os.path.join(workdir, "change")))
        specs = load_metric_specs(change)
        failing = False
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = [("base", base), ("change", change)]
                if i % 2:
                    order.reverse()
                got = {}
                for side, tree in order:
                    got[side] = run_perfbench(tree, workload, seed,
                                              args.seconds, args.trace)
                    print(f"{workload} pair {i + 1}/{args.pairs} seed "
                          f"{seed} {side} done", file=sys.stderr,
                          flush=True)
                pairs.append((got["base"], got["change"]))
            summary = summarize(pairs, specs)
            print(format_table(workload, summary) + "\n", flush=True)
            failing |= any(row["verdict"].startswith(("WORSE", "COUNTER"))
                           for row in summary["rows"])
            base_failed, change_failed = (
                failed / max(1, attempted) for failed, attempted in
                zip(summary["failed"], summary["attempted"]))
            failing |= change_failed > base_failed
            failing |= summary["incorrect"][1] > 0
        return 1 if failing else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
