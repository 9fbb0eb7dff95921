"""Command-line orchestration: check | simulate | limit | compare | diagnostics.

Every output file starts with a comment line carrying the config hash and
seed.  CSV byte format: that meta line ends in LF, the header and every row
end in CRLF; integer and boolean fields are written with ``%d``, floats with
``%.17g`` (17 significant digits, so doubles round-trip) and NaN as ``nan``.
Every CSV goes through the column writer :func:`brwre.csv_writer.write_blocks`.
Exit codes: 0 success (and comparison PASS), 1 comparison FAIL, 2 bad
configuration, 3 runtime failure (reported as a JSON record on stdout), 141
(128 + SIGPIPE) when stdout is closed before the command ends, as under
``| head -1``; the files written so far stay, and no traceback is printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from functools import partial
from typing import Optional

import numpy as np

from . import brw, limit_laws, stats
from .config import ExperimentConfig, config_hash, load_config
from .csv_writer import write_blocks, write_csv
from .errors import BrwreError, ConfigError, NoSurvivingReplication
from .limit_laws import EnvStream, QSample
from .measures import MeasureBlock


def _write_atoms(path: str, index_name: str, measures, meta: str) -> None:
    """One ``(index, location, multiplicity)`` row per atom, indexing ``measures``.

    The measures are fed to the writer one at a time, with the index as a
    broadcast view, so no column longer than one block is built."""
    blocks = (
        (np.broadcast_to(np.int64(i), m.locations.shape), m.locations, m.multiplicities)
        for i, m in enumerate(measures)
    )
    write_blocks(path, [index_name, "location", "multiplicity"], blocks, meta)


def _meta_line(cfg: ExperimentConfig) -> str:
    return f"# config_hash={config_hash(cfg)} seed={cfg.seed}"


def _outdir(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def _write_json(cfg: ExperimentConfig, name: str, doc: dict) -> None:
    """Write ``doc`` to ``name`` in the output directory, after a ``meta`` entry."""
    with open(os.path.join(_outdir(cfg), name), "w") as fh:
        json.dump({"meta": _meta_line(cfg)[2:], **doc}, fh, indent=2)


def cmd_check(cfg: ExperimentConfig) -> int:
    from .environment import check_assumptions

    report = check_assumptions(cfg.environment)
    print(f"verdict:            {report.verdict}")
    if report.reason:
        print(f"reason:             {report.reason}")
    print(f"E log E(xi|Y):      {report.e_log_mean:.6g}")
    print(f"E |log P(xi>1|Y)|:  {report.e_abs_log_p_gt1:.6g}")
    print(f"x log x moment:     {report.kesten_stigum_term:.6g}")
    print(f"E 1/E(xi|Y):        {report.e_inverse_mean:.6g}")
    print(f"series tail:        {report.series_tail}")
    _write_json(cfg, "check.json", dataclasses.asdict(report))
    return 0


def _write_simulation(cfg: ExperimentConfig, n: int, outcomes) -> None:
    out = _outdir(cfg)
    meta = _meta_line(cfg)
    k = cfg.simulation.top_k
    header = (
        ["rep", "n", "Z_n", "pi_n", "B_n"]
        + [f"M{i + 1}" for i in range(k)]
        + [f"min{i + 1}" for i in range(k)]
        + ["W_n", "two_big_jump_flag", "restarts"]
    )
    extremes = np.full((2 * k, len(outcomes)), np.nan)  # NaN past a small population
    for rep, o in enumerate(outcomes):
        top, bottom = o.top[:k], o.bottom[:k]
        extremes[: top.size, rep] = top
        extremes[k : k + bottom.size, rep] = bottom
    columns = [
        np.arange(len(outcomes)),
        np.full(len(outcomes), n),
        np.array([o.z[-1] for o in outcomes], dtype=np.int64),
        np.array([o.env_seq.pi[-1] for o in outcomes], dtype=float),
        np.array([o.b_n for o in outcomes], dtype=float),
        *extremes,
        np.array([o.w_n for o in outcomes], dtype=float),
        np.array([o.diagnostics.paths_with_two_big_jumps > 0 for o in outcomes]),
        np.array([o.restarts for o in outcomes], dtype=np.int64),
    ]
    write_csv(os.path.join(out, f"summary_n{n}.csv"), header, columns, meta)
    _write_atoms(os.path.join(out, f"atoms_n{n}.csv"), "rep", [o.atoms for o in outcomes], meta)


def cmd_simulate(cfg: ExperimentConfig, reps: Optional[int], threads: int) -> int:
    reps = reps or cfg.simulation.replications
    for n in cfg.simulation.n:
        outcomes = brw.run_replications(cfg.sim_config(n), reps, threads)
        _write_simulation(cfg, n, outcomes)
        survived = sum(not o.extinct for o in outcomes)
        print(f"n={n}: {len(outcomes)} replications written ({survived} surviving)")
    return 0


# Stream ids far above any replication index, so limit draws never share a
# stream with the finite-n simulations.
_Q_STREAM = 0xA5A50001
_PP_STREAM = 0xA5A50002


# Most limit draws one sampler call makes: larger counts go block by block.
_BLOCK = 2 ** 12


def _blocks(size: int):
    return (min(_BLOCK, size - start) for start in range(0, size, _BLOCK))


def _draw_q_samples(cfg: ExperimentConfig, size: int) -> QSample:
    rng = brw.replication_rng(cfg.seed, _Q_STREAM)
    blocks = [
        limit_laws.sample_q(cfg.displacement, cfg.environment, cfg.limit, rng, size=block)
        for block in _blocks(size)
    ]
    return QSample(*(np.concatenate([getattr(b, f) for b in blocks]) for f in ("q", "w", "c_value")))


def _draw_pp(cfg: ExperimentConfig, size: int):
    rng = brw.replication_rng(cfg.seed, _PP_STREAM)
    draws, scales = zip(*(
        limit_laws.sample_limit_point_process(cfg.displacement, cfg.environment, cfg.limit, rng, size=block)
        for block in _blocks(size)
    ))
    return MeasureBlock.concat(draws), np.concatenate(scales)


def cmd_limit(cfg: ExperimentConfig, reps: Optional[int]) -> int:
    out = _outdir(cfg)
    meta = _meta_line(cfg)
    size = reps or cfg.limit.n_limit_samples

    q_samples = _draw_q_samples(cfg, size)
    q_columns = [np.arange(size), q_samples.q, q_samples.w, q_samples.c_value]
    write_csv(os.path.join(out, "q_samples.csv"), ["sample", "q", "w", "c_value"], q_columns, meta)

    grid = cfg.comparison.grid
    cdf = [limit_laws.limit_max_cdf(q_samples, x, cfg.displacement.alpha) for x in grid]
    cdf_columns = [np.array(grid, dtype=float), np.array(cdf, dtype=float)]
    write_csv(os.path.join(out, "limit_cdf.csv"), ["x", "cdf"], cdf_columns, meta)

    draws, _ = _draw_pp(cfg, size)
    draw_index = np.repeat(np.arange(len(draws)), np.diff(draws.offsets))
    pp_columns = [draw_index, draws.locations, draws.multiplicities]
    write_csv(os.path.join(out, "limit_pp.csv"), ["draw", "location", "multiplicity"], pp_columns, meta)

    stream = EnvStream(cfg.environment, brw.replication_rng(cfg.seed, _Q_STREAM))
    constants = {}
    for kind in limit_laws.SERIES_KINDS:
        sv = limit_laws.cluster_norm_series(kind, stream, cfg.limit)
        constants[kind] = {
            "value": float(sv.value[0]),
            "tail_bound": float(sv.tail_bound[0]),
            "terms_used": sv.terms_used,
            "certified": sv.certified,
        }
    doc = {"note": "quenched values for one realized environment draw", "constants": constants}
    _write_json(cfg, "constants.json", doc)
    for kind, doc in constants.items():
        tail = "tail <=" if doc["certified"] == "deterministic" else "expected tail"
        print(f"{kind}: {doc['value']:.12g} ({tail} {doc['tail_bound']:.3g}, {doc['terms_used']} terms)")
    return 0


def _count_matrix(measures, xs) -> np.ndarray:
    """``N[i, j] = measures[i].count_above(xs[j])``."""
    return np.array([[m.count_above(x) for x in xs] for m in measures])


def cmd_compare(cfg: ExperimentConfig, reps: Optional[int], threads: int) -> int:
    """Each side is reduced once: normalised maxima (limit side: the Q-sample
    CDF on the grid) and one count matrix over ``(*grid, count_x)``.  TV reads
    its last column; the Laplace value E exp(-N(x, oo)) of the indicator above
    x is the mean of exp(-count) down the column of x."""
    comp = cfg.comparison
    grid = comp.grid
    xs = (*grid, comp.count_x)
    report = {"n": {}, "pass": True}

    q_samples = _draw_q_samples(cfg, cfg.limit.n_limit_samples)
    pp_draws, pp_scales = _draw_pp(cfg, min(cfg.limit.n_limit_samples, 4000))
    pp_floor = float(pp_scales.max()) * cfg.limit.u_min if pp_scales.size else 0.0
    limit_cdf = [limit_laws.limit_max_cdf(q_samples, x, cfg.displacement.alpha) for x in grid]
    limit_counts = pp_draws.counts_above(xs)
    # atoms below retain_delta were never kept, nor limit points below pp_floor
    laplace_cols = [j for j, x in enumerate(grid) if x > max(cfg.simulation.retain_delta, pp_floor)]

    reps = reps or cfg.simulation.replications
    for n in cfg.simulation.n:
        outcomes = brw.run_replications(cfg.sim_config(n), reps, threads)
        _write_simulation(cfg, n, outcomes)
        alive = [o for o in outcomes if not o.extinct]
        if not alive:
            raise NoSurvivingReplication(
                f"compare at n={n}: none of the {len(outcomes)} replications survived"
            )
        ecdf = stats.Ecdf.from_samples([o.top[0] / o.b_n for o in alive]).eval(grid).tolist()
        counts = _count_matrix([o.atoms for o in alive], xs)
        rows = [
            {"x": x, "ecdf": emp, "limit_cdf": lim, "abs_diff": abs(emp - lim)}
            for x, emp, lim in zip(grid, ecdf, limit_cdf)
        ]
        laplace_rows = []
        for j in laplace_cols:
            fin, lim = (float(np.exp(-side[:, j]).mean()) for side in (counts, limit_counts))
            laplace_rows.append({"x": grid[j], "finite": fin, "limit": lim, "abs_diff": abs(fin - lim)})
        tv = stats.count_distribution_tv(counts[:, -1], limit_counts[:, -1])
        table = [
            ("KS", max(r["abs_diff"] for r in rows), comp.ks_tolerance),
            ("TV", tv, comp.count_tv_tolerance),
            ("Laplace", max((r["abs_diff"] for r in laplace_rows), default=0.0), comp.laplace_tolerance),
        ]
        ok = all(distance <= tol for _, distance, tol in table)
        report["pass"] = report["pass"] and ok
        report["n"][str(n)] = {
            "grid": rows,
            "ks": table[0][1],
            "count_tv": {"x": comp.count_x, "tv": tv},
            "laplace": laplace_rows,
            "diagnostics": brw.diagnostics_report(outcomes, cfg.simulation.early_rho),
            "pass": ok,
        }
        stat_line = "  ".join(f"{name}={distance:.4f} (tol {tol})" for name, distance, tol in table)
        print(f"n={n}  {stat_line}  [{'PASS' if ok else 'FAIL'}]")
        print(f"      x     ECDF   limit  |diff|")
        for r in rows:
            print(f"   {r['x']:6.2f}  {r['ecdf']:.4f}  {r['limit_cdf']:.4f}  {r['abs_diff']:.4f}")

    _write_json(cfg, "compare.json", report)
    print("overall:", "PASS" if report["pass"] else "FAIL")
    return 0 if report["pass"] else 1


def cmd_diagnostics(cfg: ExperimentConfig, reps: Optional[int], threads: int) -> int:
    reps = reps or cfg.simulation.replications
    rho = cfg.simulation.early_rho
    doc = {"rho": rho, "n": {}}
    for n in cfg.simulation.n:
        outcomes = brw.run_replications(cfg.sim_config(n), reps, threads)
        diag = brw.diagnostics_report(outcomes, rho)
        doc["n"][str(n)] = diag
        print(
            f"n={n}: two_jump_fraction={diag['two_jump_fraction']:.4f}  "
            f"early_jump_fraction(rho={rho})={diag['early_jump_fraction']:.4f}"
        )
    _write_json(cfg, "diagnostics.json", doc)
    return 0


def _int_flag(flag: str, least: int, raw: str) -> int:
    """The value of an integer flag as an int >= ``least``.  A bad value raises
    ConfigError, which argparse lets through: exit 2 with the JSON record."""
    try:
        value = int(raw)
        if value >= least:
            return value
    except ValueError:
        pass
    raise ConfigError(f"{flag} must be an integer >= {least}, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brwre",
        description="Branching random walk in random environment: simulation and limit laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "simulate", "limit", "compare", "diagnostics"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment configuration (YAML)")
        p.add_argument("--seed", type=partial(_int_flag, "--seed", 0), default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--reps", type=partial(_int_flag, "--reps", 1), default=None, help="override replication counts")
        p.add_argument(
            "--threads",
            type=partial(_int_flag, "--threads", 1),
            default=1,
            help="worker processes for replication batches (default 1)",
        )
    return parser


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config, seed=args.seed, output_dir=args.out)
        if args.command == "check":
            return cmd_check(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.reps, args.threads)
        if args.command == "limit":
            return cmd_limit(cfg, args.reps)
        if args.command == "compare":
            return cmd_compare(cfg, args.reps, args.threads)
        return cmd_diagnostics(cfg, args.reps, args.threads)
    except ConfigError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    except BrwreError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 3


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a buffered stdout meets its closed pipe here
        return code
    except BrokenPipeError:
        # so that the interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
