#!/usr/bin/env python3
"""Alternating before/after runs of one perfbench workload, and their summary.

    python3 scripts/perf_pairs.py --parent ../parent --change . \\
        --workload solve_large --seed 1 --out pairs.jsonl
    python3 scripts/perf_pairs.py --summarize pairs.jsonl
    python3 scripts/perf_pairs.py --self-test

Ten pairs of `perfbench/run.py` runs of BENCHMARK.json's run_seconds, odd
pairs parent first, each side in its own CARGO_TARGET_DIR under the change's
.bench_build/pairs; results append to --out as JSON lines. Per end-to-end
metric the summary prints both medians, the parent's IQR share of its
median, the pairs the change won and a verdict: WORSE (median worse by more
than the metric's bound), unresolved (IQR share above the bound, and not
every change run beats every parent run) or ok.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PAIRS = 10


def summarize(lines: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per metric; pairs match by (workload, seed, pair)."""
    sides: dict[str, dict] = {"parent": {}, "change": {}}
    for l in lines:
        sides[l["side"]][l["workload"], l["seed"], l["pair"]] = l["result"]
    keys = sorted(set(sides["parent"]) & set(sides["change"]))
    rows = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        pairs = [(sides["parent"][k]["metrics"][name]["value"],
                  sides["change"][k]["metrics"][name]["value"])
                 for k in keys if name in sides["parent"][k]["metrics"]]
        if not pairs:
            continue
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                     if len(parent) > 1 else (p_med,) * 3)
        iqr_share = (q3 - q1) / (p_med or 1)
        loss = (p_med - c_med if higher else c_med - p_med) / (p_med or 1)
        apart = (min(change) > max(parent) if higher
                 else max(change) < min(parent))
        won = sum(1 for p, c in pairs if (c > p if higher else c < p))
        verdict = ("WORSE" if loss > metric["bound"] else
                   "unresolved" if iqr_share > metric["bound"] and not apart
                   else "ok")
        rows.append({"metric": name, "parent": p_med, "change": c_med,
                     "iqr_share": iqr_share, "won": won, "pairs": len(pairs),
                     "verdict": verdict})
    failed = {side: sum(r.get("failed", 0) for r in sides[side].values())
              for side in sides}
    rows.append({"metric": "failed", **failed, "iqr_share": 0.0, "won": 0,
                 "pairs": len(keys),
                 "verdict": "WORSE" if failed["change"] else "ok"})
    return rows


def run_side(checkout: pathlib.Path, build: pathlib.Path, workload: str,
             seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, env=dict(os.environ, CARGO_TARGET_DIR=str(build)),
        stdout=subprocess.PIPE, text=True, check=False)
    out = done.stdout.strip().splitlines() or [""]
    if done.returncode != 0 or not out[-1].startswith("{"):
        sys.exit(f"perf_pairs: {checkout} {workload} failed "
                 f"(exit {done.returncode})")
    return json.loads(out[-1])


def self_test() -> int:
    metrics = [{"name": "throughput_ops_s", "better": "higher", "bound": 0.25},
               {"name": "setup_s", "better": "lower", "bound": 0.25}]
    # Per pair, the (parent, change) values of the two metrics above.
    runs = [((2.0, 0.27), (6.0, 0.28)), ((2.4, 0.45), (6.6, 0.38)),
            ((2.2, 0.30), (1.0, 0.36)), ((2.6, 0.40), (7.0, 0.33))]
    lines = [{"workload": "w", "seed": 1, "pair": pair, "side": side,
              "result": {"metrics": {m["name"]: {"value": x}
                                     for m, x in zip(metrics, values)}}}
             for pair, run in enumerate(runs, start=1)
             for side, values in zip(("parent", "change"), run)]
    thr, setup, failed = summarize(lines, metrics)
    checks = [abs(thr["parent"] - 2.3) < 1e-12, thr["change"] == 6.3,
              abs(thr["iqr_share"] - 0.3 / 2.3) < 1e-12, thr["won"] == 3,
              thr["pairs"] == 4, thr["verdict"] == failed["verdict"] == "ok",
              # Parent IQR 34 % of its median, above the 25 % bound: the
              # change's better median (0.345 against 0.35 s) settles nothing.
              setup["won"] == 2, setup["verdict"] == "unresolved"]
    for line in lines[1::2]:  # every change run beats every parent run
        line["result"]["metrics"]["setup_s"]["value"] = 0.2
    for line in lines[1:7:2]:  # three of the four change runs collapse
        line["result"]["metrics"]["throughput_ops_s"]["value"] = 0.1
    thr, setup, _ = summarize(lines, metrics)
    checks += [thr["verdict"] == "WORSE", setup["verdict"] == "ok"]
    if not all(checks):
        print(f"perf_pairs self-test FAILED: {checks}")
        return 1
    print("perf_pairs self-test passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=pathlib.Path)
    parser.add_argument("--change", type=pathlib.Path, default=ROOT)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=pathlib.Path)
    parser.add_argument("--summarize", type=pathlib.Path)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    if not args.summarize:
        if not (args.parent and args.workload and args.out):
            parser.error("--parent, --workload and --out are required to run")
        build_root = (args.change / ".bench_build" / "pairs").resolve()
        for pair in range(1, PAIRS + 1):
            for side in ("parent", "change")[::1 if pair % 2 else -1]:
                checkout = args.parent if side == "parent" else args.change
                result = run_side(checkout.resolve(), build_root / side,
                                  args.workload, args.seed,
                                  bench["run_seconds"])
                line = {"workload": args.workload, "seed": args.seed,
                        "pair": pair, "side": side, "result": result}
                with args.out.open("a") as out:
                    out.write(json.dumps(line) + "\n")
    path = args.summarize or args.out
    lines = [json.loads(l) for l in path.read_text().splitlines() if l.strip()]
    for group in sorted({(l["workload"], l["seed"]) for l in lines}):
        print(f"== {group[0]}, seed {group[1]}\n{'metric':<22}{'parent':>12}"
              f"{'change':>12}{'IQR/med':>9}{'won':>7}  verdict")
        for r in summarize([l for l in lines
                            if (l["workload"], l["seed"]) == group],
                           bench["end_to_end"]):
            print(f"{r['metric']:<22}{r['parent']:>12.6g}{r['change']:>12.6g}"
                  f"{r['iqr_share']:>8.1%}{r['won']:>4}/{r['pairs']:<2}  "
                  f"{r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
