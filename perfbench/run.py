"""brwre benchmark: one workload per run, end-to-end or traced per layer.

Run from the root of a brwre checkout:

    python3 perfbench/run.py --workload simulate-mixture --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn, each in its own process.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer table.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Human-readable lines
come before it; the same numbers, with every span, are also written to
``.perfbench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

OUT_ROOT = ".perfbench_out"
SETUP_PROBES = 3
MIN_OPS = 2  # the second operation is the byte-identity rerun


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pct(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_probe(config: str, seed: int, out_dir: str) -> tuple:
    """Wall time of a fresh ``python -m brwre.cli check``: start, import, load."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "brwre.cli", "check", "--config", config,
         "--seed", str(seed), "--out", out_dir],
        env=env, capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - t0
    problems = []
    try:
        with open(os.path.join(out_dir, "check.json")) as fh:
            verdict = json.load(fh)["verdict"]
    except (OSError, ValueError, KeyError) as exc:
        verdict = f"unreadable check.json: {exc}"
    if proc.returncode != 0 or verdict != "SupercriticalOK":
        problems.append(f"setup probe: exit {proc.returncode}, verdict {verdict}")
    return wall, problems


def run_ops(wl, seconds: float, min_ops: int, log, tracer=None) -> tuple:
    """Closed loop: operations back to back until ``seconds`` have passed.

    With a tracer, operations alternate untraced and traced, so both kinds
    see the same drift of the host's speed.  Returns (untraced, traced).
    """
    from workloads import Op

    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(untraced) + len(traced) < min_ops or time.perf_counter() < deadline:
        tracing = tracer is not None and len(untraced) > len(traced)
        if tracing:
            tracer.install()
        try:
            op = wl.run()
        except Exception:  # an operation that raises counts as failed
            op = Op(math.nan, math.nan, [traceback.format_exc(limit=3)])
        finally:
            if tracing:
                tracer.uninstall()
        log(f"op {len(untraced) + len(traced) + 1}{' traced' if tracing else ''}: "
            f"wall {op.wall_s:.4f} s  cpu {op.cpu_s:.4f} s  scale {op.scale:.4f}  "
            + (" ".join(f"{k}={v}" for k, v in op.info.items()) + "  " if op.info else "")
            + ("ok" if not op.problems else "FAILED: " + "; ".join(op.problems)))
        (traced if tracing else untraced).append(op)
    return untraced, traced


def completed(ops) -> list:
    """The operations that returned, failed checks or not."""
    return [op for op in ops if not math.isnan(op.wall_s)]


def peak_rss_mib() -> float:
    """Largest resident set of this process or any reaped child (not their sum)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def mean_time(ops, attr: str = "wall_s", scaled: bool = True) -> float:
    """The mean time of the operations, each scaled to the nominal work.

    The host's speed shifts in phases of several seconds.  The mean follows
    the share of slow time in a run smoothly, where the median or the minimum
    of a few operations jumps between the phases (see README.md).
    """
    return statistics.fmean(getattr(op, attr) * (op.scale if scaled else 1.0) for op in ops)


def run_metrics(wl, ops) -> dict:
    """Workload-level figures of the untraced operations."""
    wall = mean_time(ops, scaled=False)
    rep_ms = [ms for op in ops for ms in op.rep_ms]
    reps_per_s = 1e3 * len(rep_ms) / sum(rep_ms) if rep_ms else wl.reps / wall
    out = {
        "run.peak_rss_mib": (peak_rss_mib(), "MiB"),
        "run.reps_per_s": (reps_per_s, "1/s"),
        "run.draws_per_s": (wl.draws / wall, "1/s"),
        "run.rep_ms_p50": (statistics.median(rep_ms) if rep_ms else 0.0, "ms"),
        "run.rep_ms_p90": (pct(rep_ms, 90) if rep_ms else 0.0, "ms"),
        "run.rep_samples": (len(rep_ms), "count"),
    }
    return out


def ratio(a: float, b: float) -> float:
    """a / b, or 0 when the base is 0 (the layer did not run)."""
    return a / b if b else 0.0


def layer_metrics(tr, wl, traced, untraced, pool_speedup) -> tuple:
    """Per-layer metrics per traced operation, and the bases of the ratios."""
    n = len(traced)
    c = {k: v // n if v % n == 0 else v / n for k, v in tr.counts.items()}

    def per(v: float) -> float:
        return v / n

    write_s = per(tr.self_s("cli.cmd"))
    rr_s = per(tr.total_s("brw.run_replications"))
    sim_s = per(tr.total_s("brw.simulate"))
    reps, restarts = c.get("reps", 0), c.get("restarts", 0)
    particles, leaves, atoms = c.get("particles", 0), c.get("leaves", 0), c.get("atoms", 0)
    brw_s = rr_s or sim_s
    stats_names = ("stats.limit_max_cdf", "stats.Ecdf.from_samples", "stats.Ecdf.eval",
                   "stats.count_distribution_tv", "stats.laplace_estimate")
    traced_wall, untraced_wall = mean_time(traced), mean_time(untraced)
    m = {
        "cli.write_s": (write_s, "s"),
        "cli.rows_written": (wl.rows_written, "count"),
        "cli.bytes_written": (wl.bytes_written, "B"),
        "cli.write_mib_per_s": (ratio(wl.bytes_written / 2**20, write_s), "MiB/s"),
        "config.load_s": (per(tr.total_s("config.load_config")), "s"),
        "brw.run_replications_s": (rr_s, "s"),
        "brw.simulate_s": (sim_s, "s"),
        "brw.propagate_s": (per(tr.self_s("brw.simulate")), "s"),
        "brw.particles": (particles, "count"),
        "brw.particles_per_s": (ratio(particles, brw_s), "1/s"),
        "brw.restarts": (restarts, "count"),
        "brw.useful_ratio": (ratio(reps, reps + restarts), "ratio"),
        "brw.pool_speedup": (pool_speedup, "ratio"),
        "brw.pool_children_cpu_s": (c.get("pool_children_cpu_ns", 0) / 1e9, "s"),
        "environment.sample_env_s": (per(tr.total_s("environment.sample_env")), "s"),
        "offspring.sample_many_s": (per(tr.total_s("offspring.sample_many")), "s"),
        "offspring.compose_calls": (per(tr.calls("offspring.compose_generation")), "count"),
        "offspring.compose_s": (per(tr.total_s("offspring.compose_generation")), "s"),
        "displacement.brood_flat_s": (per(tr.total_s("displacement.brood_flat")), "s"),
        "measures.from_locations_s": (per(tr.total_s("measures.from_locations")), "s"),
        "measures.atoms_retained": (atoms, "count"),
        "measures.retain_ratio": (ratio(atoms, leaves), "ratio"),
        "limit_laws.sample_q_s": (per(tr.total_s("limit_laws.sample_q")), "s"),
        "limit_laws.point_process_s": (per(tr.total_s("limit_laws.sample_limit_point_process")), "s"),
        "limit_laws.martingale_s": (per(tr.total_s("limit_laws.sample_martingale_limit")), "s"),
        "limit_laws.cluster_sampler_init_s": (per(tr.total_s("limit_laws.ClusterSampler.__init__")), "s"),
        "limit_laws.sample_size_calls": (per(tr.calls("limit_laws.ClusterSampler.sample_size")), "count"),
        "limit_laws.sample_size_s": (per(tr.total_s("limit_laws.ClusterSampler.sample_size")), "s"),
        "limit_laws.beyond_cap_draws": (per(tr.calls("limit_laws.EnvStream.simulate_population")), "count"),
        "limit_laws.series_terms": (c.get("series_terms", 0), "count"),
        "stats.s": (per(tr.total_s(*stats_names)), "s"),
        "trace.overhead_ratio": (traced_wall / untraced_wall, "ratio"),
        "trace.attributed_ratio": (tr.top_ns / 1e9 / sum(op.wall_s for op in traced), "ratio"),
    }
    bases = {
        "cli.write_s": "self time of cli.cmd_* (everything in the command not inside a traced layer)",
        "cli.write_mib_per_s": f"{wl.bytes_written} B / cli.write_s",
        "brw.propagate_s": "self time of brw.simulate",
        "brw.particles_per_s": f"{particles:.0f} particles / "
                               + ("brw.run_replications_s" if rr_s else "brw.simulate_s"),
        "brw.useful_ratio": f"{reps:.0f} reps / ({reps:.0f} reps + {restarts:.0f} restarts)",
        "brw.pool_children_cpu_s": "CPU of pool workers reaped inside run_replications",
        "measures.retain_ratio": f"{atoms:.0f} atoms / {leaves:.0f} leaves",
        "trace.overhead_ratio": f"mean traced op {traced_wall:.4f} s / "
                                f"mean untraced op {untraced_wall:.4f} s",
        "trace.attributed_ratio": "time inside outermost layer spans / traced op wall",
    }
    return m, bases


def environment(wl, args) -> dict:
    import numpy
    import scipy

    import brwre

    sizes = {"reps": wl.reps, "draws": wl.draws}
    for attr in ("rows_target", "particle_budget", "threads"):
        if hasattr(wl, attr):
            sizes[attr] = getattr(wl, attr)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "brwre": brwre.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
        "workload": args.workload,
        "sizes": sizes,
    }


def run_all(args, names) -> int:
    """Every workload in its own process; one combined result line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}", flush=True)
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exit {proc.returncode}: {proc.stderr.strip()[-500:]}", flush=True)
            total["correct"] = False
            continue
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (os.path.isfile(os.path.join("src", "brwre", "cli.py")) and os.path.isdir("configs")):
        print("error: run from the root of a brwre checkout (src/brwre and configs/ not found)",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = os.path.join(OUT_ROOT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    log = functools.partial(print, flush=True)

    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    # traced operations repeat one input, so their counts are exact
    wl.replay = bool(args.trace)
    checks = []  # problems lists of the untimed checks
    checks.append(wl.naive_check())
    log(f"check simulate == simulate_naive: {checks[-1] or 'ok'}")

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            wall, problems = setup_probe(wl.config, args.seed, os.path.join(out_dir, "setup"))
            setup.append(wall)
            checks.append(problems)
            log(f"setup probe: {wall:.4f} s {problems or 'ok'}")

    wl.prepare()

    pool_speedup = 0.0
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        untraced, traced = run_ops(wl, args.seconds, MIN_OPS, log, tracer)
        if hasattr(wl, "pool_speedup"):
            pool_speedup, problems = wl.pool_speedup()
            checks.append(problems)
            log(f"pool speedup 1 vs {wl.threads} workers: {pool_speedup:.3f} {problems or 'ok'}")
    else:
        untraced, traced = run_ops(wl, args.seconds, MIN_OPS, log)
    ops = untraced + traced

    env = environment(wl, args)
    log("env " + json.dumps(env, sort_keys=True))
    attempted = len(ops) + len(checks)
    failed = sum(1 for op in ops if op.problems) + sum(1 for p in checks if p)
    if not completed(untraced) or (args.trace and not completed(traced)):
        print("error: no operation completed", file=sys.stderr)
        return 1

    info = run_metrics(wl, completed(untraced))
    info["run.fail_ratio"] = (failed / attempted, "ratio")
    bases = {}
    if args.trace:
        metrics, bases = layer_metrics(tracer, wl, completed(traced), completed(untraced), pool_speedup)
        metrics.update(info)
        spans = {k: {"calls": v[0] // len(traced), "total_s": v[1] / 1e9 / len(traced),
                     "self_s": v[2] / 1e9 / len(traced)} for k, v in sorted(tracer.spans.items())}
        log(f"{'span (per traced op)':44s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
        for k, v in spans.items():
            log(f"{k:44s} {v['calls']:9d} {v['total_s']:10.4f} {v['self_s']:10.4f}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (mean_time(completed(ops)), "s"),
            "cpu_s": (mean_time(completed(ops), "cpu_s"), "s"),
        }
        spans = {}
        for k, v in info.items():
            log(f"info {k} {v[0]:.6g} {v[1]}")
    for k, (value, unit) in metrics.items():
        log(f"metric {k} {value:.6g} {unit}" + (f"  [{bases[k]}]" if k in bases else ""))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = dict(result, env=env, bases=bases, spans=spans, setup_probes_s=setup,
                   info={k: {"value": v, "unit": u} for k, (v, u) in info.items()},
                   ops=[{"wall_s": o.wall_s, "cpu_s": o.cpu_s, "scale": o.scale,
                         "traced": was_traced, "problems": o.problems, **o.info}
                        for group, was_traced in ((untraced, False), (traced, True))
                        for o in group])
    with open(os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(details, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
