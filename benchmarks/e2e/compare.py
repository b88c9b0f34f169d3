"""Compare two source trees on the benchmark, or measure one tree's spread.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py --base ../parent/src --head src \\
        [--pairs 10] [--seeds 0,1] [--workloads point-hot,scan-cold] \\
        [--traced] [--json out.json]

Pair ``i`` runs every workload on both trees with seed ``i`` (or the
``i``-th of ``--seeds``, cycling), alternating which tree goes first,
with the same benchmark code and settings.  For each workload and
end-to-end metric it prints both sides' median and quartiles, how many
of the pairs run the head won, and a verdict:

* ``gain`` — the head won at least 9 of 10 pairs and the medians differ
  by more than the base's interquartile range;
* ``void`` — it would be a gain, but the head had more failed runs or
  failed operations than the base;
* ``REGRESSION`` — the head's median is worse than the base's by more
  than the metric's bound in BENCHMARK.json;
* ``unresolved`` — a side's spread (IQR over median) is wider than the
  bound, unless every head run beats every base run;
* ``same`` — none of these.

A pair whose head run failed (exited non-zero: a wrong or missing
answer, or an invalid run) counts as a head loss, and one whose base run
alone failed as a head win; medians and quartiles are over the runs that
succeeded.  The times are compared as reported, at the speed probe's
nominal speed, and again as measured (``detail.measured``); a metric
whose two verdicts differ is marked ``DISAGREE``, and neither verdict
should be trusted alone.

Without ``--head`` it runs the base alone and prints each metric's
spread beside its bound (a spread must stay below a third of the bound
for the bound to be usable).  When ``--seeds`` repeats seeds, it also
checks that the runs of each seed agree: every seed's median lies
within the bound of every other seed's.

``--traced`` adds one traced run per workload and side, with the first
seed, and prints its per-layer metrics.  ``--json`` writes every run's
full results (with provenance) and the table; the committed baseline in
``results/`` is such a file::

    python3 benchmarks/e2e/compare.py --base src --pairs 10 --seeds 0,1 \\
        --traced --json benchmarks/e2e/results/baseline-<commit>.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

from run import ROOT, load_spec

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(src: str, workload: str, seed: int, seconds: int,
             trace: int = 0) -> dict:
    """One benchmark run: its full results (``run.py --out``) with its
    exit status under ``exit``; just ``{"exit": status}`` when it wrote
    no results."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "result.json")
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--src", src, "--out", out],
            capture_output=True, text=True, cwd=ROOT, check=False)
        if done.returncode != 0:
            sys.stderr.write(f"{workload} seed {seed} on {src}: exit "
                             f"{done.returncode}\n{done.stderr[-2000:]}\n")
        result = {}
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                result = json.load(fh)
        result["exit"] = done.returncode
        return result


def ok(run: dict) -> bool:
    return run["exit"] == 0


def failed_ops(runs: List[dict]) -> int:
    return sum(int(run.get("detail", {}).get("failed", 0)) for run in runs)


def quartiles(values: List[float]) -> List[float]:
    """[q1, median, q3] as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3 if values else [float("nan")] * 3
    return statistics.quantiles(values, n=4)


def spread(values: List[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def head_wins(base: List[Optional[float]], head: List[Optional[float]],
              better: str) -> int:
    """Pairs the head won; ``None`` marks a failed run, so a pair whose
    head run failed is a loss and one whose base run alone failed a win."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(h is not None and (b is None or sign * (h - b) > 0)
               for b, h in zip(base, head))


def verdict(base: List[Optional[float]], head: List[Optional[float]],
            better: str, bound: float, *,
            head_failed_more: bool = False) -> str:
    """The verdict on one metric of ``len(base)`` pairs.

    ``base[i]`` and ``head[i]`` are pair ``i``'s values, ``None`` where
    that run failed; ``head_failed_more`` says the head had more failed
    runs or failed operations than the base.
    """
    sign = 1.0 if better == "higher" else -1.0
    base_ok = [b for b in base if b is not None]
    head_ok = [h for h in head if h is not None]
    if not base_ok or not head_ok:
        return "unresolved"
    b_q1, b_med, b_q3 = quartiles(base_ok)
    h_med = quartiles(head_ok)[1]
    gain = sign * (h_med - b_med)
    if gain < -bound * abs(b_med):
        return "REGRESSION"
    if (gain > 0 and head_wins(base, head, better) >= 0.9 * len(base)
            and abs(h_med - b_med) > b_q3 - b_q1):
        return "void" if head_failed_more else "gain"
    all_better = (len(head_ok) == len(head)
                  and min(sign * h for h in head_ok)
                  > max(sign * b for b in base_ok))
    if max(spread(base_ok), spread(head_ok)) > bound and not all_better:
        return "unresolved"
    return "same"


def seed_agreement(runs: List[dict], name: str,
                   bound: float) -> Optional[dict]:
    """Per-seed medians of ``name`` and whether each lies within
    ``bound`` of every other; ``None`` unless two seeds ran twice."""
    by_seed: Dict[int, List[float]] = {}
    for run in runs:
        if ok(run):
            by_seed.setdefault(run["seed"], []).append(run["metrics"][name])
    medians = {seed: statistics.median(values)
               for seed, values in by_seed.items() if len(values) > 1}
    if len(medians) < 2:
        return None
    agree = all(abs(a - b) <= bound * min(abs(a), abs(b))
                for a, b in itertools.combinations(medians.values(), 2))
    return {"medians": medians, "agree": agree}


def values(runs: List[dict], name: str,
           measured: bool = False) -> List[Optional[float]]:
    """Each run's ``name`` (as measured when asked and recorded), ``None``
    for a failed run."""
    out: List[Optional[float]] = []
    for run in runs:
        if not ok(run):
            out.append(None)
            continue
        raw = run["detail"].get("measured", {}) if measured else {}
        out.append(raw.get(name, run["metrics"][name]))
    return out


def main(argv: List[str] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="source tree (src/)")
    parser.add_argument("--head", default=None, help="source tree (src/)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seeds, cycled over the pairs "
                             "(default: 0, 1, ..., pairs - 1)")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--traced", action="store_true",
                        help="also one traced run per workload and side")
    parser.add_argument("--json", default=None, help="write every run here")
    opts = parser.parse_args(argv)
    sides = {"base": os.path.abspath(opts.base)}
    if opts.head is not None:
        sides["head"] = os.path.abspath(opts.head)
    seeds = ([int(s) for s in opts.seeds.split(",")] if opts.seeds
             else list(range(opts.pairs)))
    workloads = opts.workloads.split(",")
    runs: Dict[str, Dict[str, List[dict]]] = {
        w: {side: [] for side in sides} for w in workloads}
    for i in range(opts.pairs):
        seed = seeds[i % len(seeds)]
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for workload in workloads:
            for side in order:
                result = run_once(sides[side], workload, seed, opts.seconds)
                runs[workload][side].append(result)
                print(f"pair {i} seed {seed} {workload} {side}: "
                      f"{'ok' if ok(result) else 'FAILED'}",
                      file=sys.stderr, flush=True)
    traced: Dict[str, Dict[str, dict]] = {}
    if opts.traced:
        for workload in workloads:
            traced[workload] = {side: run_once(sides[side], workload,
                                               seeds[0], opts.seconds, 1)
                                for side in sides}

    failed = sum(not ok(r) for w in workloads for side in sides
                 for r in runs[w][side])
    failed += sum(not ok(r) for t in traced.values() for r in t.values())
    rows = []
    for workload in workloads:
        side_runs = runs[workload]
        head_failed_more = "head" in sides and (
            sum(not ok(r) for r in side_runs["head"])
            > sum(not ok(r) for r in side_runs["base"])
            or failed_ops(side_runs["head"]) > failed_ops(side_runs["base"]))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = {"workload": workload, "metric": name,
                   "bound": metric["bound"]}
            for side in sides:
                vals = [v for v in values(side_runs[side], name)
                        if v is not None]
                row[side] = {"values": vals, "quartiles": quartiles(vals),
                             "spread": spread(vals)}
            if "head" in sides:
                judge = [verdict(values(side_runs["base"], name, measured),
                                 values(side_runs["head"], name, measured),
                                 metric["better"], metric["bound"],
                                 head_failed_more=head_failed_more)
                         for measured in (False, True)]
                row["head_wins"] = head_wins(values(side_runs["base"], name),
                                             values(side_runs["head"], name),
                                             metric["better"])
                row["pairs"] = opts.pairs
                row["verdict"], row["measured_verdict"] = judge
            else:
                row["seed_agreement"] = seed_agreement(
                    side_runs["base"], name, metric["bound"])
            rows.append(row)

    for row in rows:
        cells = [f"{row['workload']:<12} {row['metric']:<19}"]
        for side in sides:
            q1, med, q3 = row[side]["quartiles"]
            cells.append(f"{side} {med:10.4g} [{q1:.4g}, {q3:.4g}]")
        if "head" in sides:
            cells.append(f"wins {row['head_wins']}/{row['pairs']} "
                         f"{row['verdict']}")
            if row["measured_verdict"] != row["verdict"]:
                cells.append(f"as measured {row['measured_verdict']} "
                             "DISAGREE")
        else:
            good = row["base"]["spread"] < row["bound"] / 3
            cells.append(f"spread {row['base']['spread']:.3f} "
                         f"bound {row['bound']} {'ok' if good else 'WIDE'}")
            agreement = row["seed_agreement"]
            if agreement is not None:
                medians = " ".join(f"{m:.4g}"
                                   for m in agreement["medians"].values())
                cells.append(f"seed medians {medians} "
                             f"{'agree' if agreement['agree'] else 'DIFFER'}")
        print("  ".join(cells))
    for workload, results in traced.items():
        for metric in spec["per_layer"]:
            cells = [f"{workload:<12} {metric['name']:<30}"]
            for side, result in results.items():
                value = (result["metrics"][metric["name"]] if ok(result)
                         else float("nan"))
                cells.append(f"{side} {value:10.4g} {metric['unit']}")
            print("  ".join(cells))
    if opts.json is not None:
        with open(opts.json, "w", encoding="utf-8") as fh:
            json.dump({"sides": {side: os.path.relpath(path, ROOT)
                                 for side, path in sides.items()},
                       "seconds": opts.seconds,
                       "pairs": opts.pairs, "seeds": seeds, "rows": rows,
                       "runs": runs, "traced": traced}, fh, indent=1)
    if failed:
        print(f"{failed} run(s) failed or gave wrong answers",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
