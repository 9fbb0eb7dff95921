"""Record paired benchmark runs of two checkouts as one committed BENCH file.

``perfbench/run.py --trace 0`` writes one result per run to
``.perfbench_out/<workload>-seed<seed>-trace0.json`` inside the checkout it
runs in.  Run it in a parent checkout and in a change checkout on the same
seeds, alternating which side goes first, then:

    python3 tools/bench_record.py --parent <parent checkout> --change <change checkout> --out BENCH_<n>.json

For every workload of ``BENCHMARK.json`` and every end-to-end metric it
writes the seeds run on both sides, each side's values, median and quartiles,
and the pair counts: a pair is one seed, and the change wins it when its
value is better in the metric's direction.  ``gain`` applies the acceptance
rule for a claimed gain: wins on at least nine tenths of the pairs, and
medians further apart than the parent's quartile distance.  Workloads without
a paired seed are left out.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def runs(checkout: str, workload: str) -> dict:
    """seed -> result dict of every ``--trace 0`` run of ``workload`` in ``checkout``."""
    pattern = os.path.join(checkout, ".perfbench_out", f"{workload}-seed*-trace0.json")
    out = {}
    for path in glob.glob(pattern):
        match = re.search(r"-seed(\d+)-trace0\.json$", path)
        if match:
            with open(path) as fh:
                out[int(match.group(1))] = json.load(fh)
    return out


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def compare(parent: list, change: list, better: str) -> dict:
    """Pair counts and the gain rule for one metric over paired seeds."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    old, new = summary(parent), summary(change)
    return {
        "parent": old,
        "change": new,
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "ties": len(parent) - wins - losses,
        "median_ratio": new["median"] / old["median"] if old["median"] else None,
        "gain": wins >= 0.9 * len(parent) and sign * (old["median"] - new["median"]) > old["q3"] - old["q1"],
    }


def git_head(checkout: str):
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(parent_dir: str, change_dir: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = {}
    host = None
    for wl in (w["name"] for w in bench["workloads"]):
        old, new = runs(parent_dir, wl), runs(change_dir, wl)
        seeds = sorted(set(old) & set(new))
        if not seeds:
            continue
        host = host or {k: new[seeds[0]]["env"][k] for k in ("python", "numpy", "nproc", "machine")}
        workloads[wl] = {
            "seeds": seeds,
            "operations": {side: {"attempted": sum(r[s]["attempted"] for s in seeds),
                                  "failed": sum(r[s]["failed"] for s in seeds)}
                           for side, r in (("parent", old), ("change", new))},
            "metrics": {
                m["name"]: dict(
                    unit=m["unit"], better=m["better"], bound=m["bound"],
                    **compare([old[s]["metrics"][m["name"]]["value"] for s in seeds],
                              [new[s]["metrics"][m["name"]]["value"] for s in seeds], m["better"]),
                )
                for m in bench["end_to_end"]
            },
        }
    return {
        "command": bench["command"],
        "parent": git_head(parent_dir),
        "change": git_head(change_dir),
        "host": host,
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout holding .perfbench_out/")
    parser.add_argument("--change", required=True, help="change checkout holding .perfbench_out/")
    parser.add_argument("--out", required=True, help="BENCH file to write")
    args = parser.parse_args(argv)
    result = record(args.parent, args.change)
    if not result["workloads"]:
        print("error: no workload has a seed run in both checkouts", file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for wl, entry in result["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{wl:20s} {name:8s} parent {m['parent']['median']:.4f} [{m['parent']['q1']:.4f}, "
                  f"{m['parent']['q3']:.4f}]  change {m['change']['median']:.4f} [{m['change']['q1']:.4f}, "
                  f"{m['change']['q3']:.4f}]  wins {m['wins']}/{m['pairs']}  gain {m['gain']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
