import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as hs

from brwre import brw, cli, config, csv_writer, stats
from brwre.cli import main
from brwre.config import (
    ComparisonSettings,
    ExperimentConfig,
    SimSettings,
    config_from_dict,
    config_hash,
    config_to_dict,
    dump_config,
    law_from_dict,
    load_config,
)
from brwre.displacement import DisplacementModel
from brwre.environment import EnvironmentModel
from brwre.errors import ConfigError, SupportBelowRetention
from brwre.limit_laws import LimitConfig, limit_max_cdf, sample_limit_point_process, sample_q
from brwre.measures import PointMeasure
from brwre.offspring import Binomial, Deterministic, Finite, Geometric, Poisson


def small_config(**kw) -> ExperimentConfig:
    defaults = dict(
        environment=EnvironmentModel.single(Deterministic(2)),
        displacement=DisplacementModel.iid(2.0, 1.0),
        simulation=SimSettings(n=(4,), replications=25, retain_delta=0.1),
        limit=LimitConfig(n_limit_samples=300, u_min=0.2),
        comparison=ComparisonSettings(ks_tolerance=0.9, count_tv_tolerance=0.9, laplace_tolerance=0.9),
        seed=1234,
        output_dir="out",
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_round_trip_structural_identity():
    # angular broods must fit the coordinates, so the unbounded families
    # round-trip with full dependence and the angular model with bounded laws
    for cfg in (
        small_config(
            environment=EnvironmentModel(
                (Deterministic(2), Poisson(2.0), Geometric(0.4), Binomial(3, 0.8), Finite((0.2, 0.3, 0.5))),
                (0.1, 0.2, 0.3, 0.25, 0.15),
            ),
            displacement=DisplacementModel.full_dep(1.5, 0.8),
        ),
        small_config(
            environment=EnvironmentModel(
                (Deterministic(2), Binomial(3, 0.8), Finite((0.2, 0.3, 0.5))), (0.3, 0.45, 0.25)
            ),
            displacement=DisplacementModel.diagonal_angular(1.5, 3, 0.8),
        ),
    ):
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)


@given(
    lam=hs.floats(0.5, 5.0, allow_nan=False),
    p=hs.floats(0.0, 1.0, allow_nan=False),
    alpha=hs.floats(0.3, 4.0, allow_nan=False),
    seed=hs.integers(0, 2 ** 63 - 1),
    reps=hs.integers(1, 500),
)
@settings(max_examples=40, deadline=None)
def test_round_trip_property(lam, p, alpha, seed, reps):
    cfg = small_config(
        environment=EnvironmentModel.single(Poisson(lam)),
        displacement=DisplacementModel.iid(alpha, p),
        simulation=SimSettings(n=(3, 5), replications=reps),
        seed=seed,
    )
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_yaml_round_trip(tmp_path):
    cfg = small_config()
    path = tmp_path / "cfg.yaml"
    path.write_text(dump_config(cfg))
    assert load_config(str(path)) == cfg
    assert load_config(str(path), seed=9).seed == 9


def test_invalid_configs_rejected(tmp_path, capsys, monkeypatch):
    with pytest.raises(ConfigError):
        config_from_dict({"environment": {"support": [], "weights": []}})
    bad = tmp_path / "bad.yaml"
    bad.write_text("environment: [not, a, mapping]")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    # integer and vector fields are never coerced silently
    for law in (
        {"family": "deterministic", "k": 2.5},
        {"family": "deterministic", "k": True},
        {"family": "binomial", "m": 3.7, "q": 0.5},
        {"family": "finite", "probs": "01"},
        {"family": "poisson", "lam": "2.0"},
    ):
        with pytest.raises(ConfigError):
            law_from_dict(law)
    assert law_from_dict({"family": "deterministic", "k": 2.0}) == Deterministic(2)
    doc = config_to_dict(small_config())
    for n in ([14.6], [True]):
        doc["simulation"]["n"] = n
        with pytest.raises(ConfigError):
            config_from_dict(doc)
    doc["simulation"]["n"] = [14.0]
    assert config_from_dict(doc).simulation.n == (14,)
    doc["simulation"]["n"] = [14.6]
    path = tmp_path / "frac.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["check", "--config", str(path)]) == 2
    # every integer setting, not only simulation.n
    for block, key, value in [
        ("simulation", "replications", 2.5),
        ("simulation", "top_k", 1.5),
        ("simulation", "population_cap", True),
        ("simulation", "early_rho", 8.5),
        ("limit", "max_terms", 10.5),
        ("limit", "w_horizon", 3.5),
        ("limit", "n_limit_samples", 1.5),
        (None, "seed", 2.5),
        # and every other setting by its type: no quoted numbers, no truthy strings
        ("comparison", "ks_tolerance", "0.07"),
        ("comparison", "count_x", "1.0"),
        ("comparison", "grid", [1.0, "2.0"]),
        ("simulation", "retain_delta", True),
        ("simulation", "condition_on_survival", "no"),
        ("simulation", "condition_on_survival", 1),
        ("limit", "u_min", "0.2"),
        ("displacement", "alpha", True),
        ("environment", "weights", ["1.0"]),
    ]:
        doc = config_to_dict(small_config())
        (doc[block] if block else doc)[key] = value
        with pytest.raises(ConfigError):
            config_from_dict(doc)
        path.write_text(yaml.safe_dump(doc))
        assert main(["check", "--config", str(path)]) == 2
    # the output directory is a string: a null or a list is not turned into
    # the name of a directory, and no run creates one
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    for value in (None, ["a", "b"]):
        doc = config_to_dict(small_config())
        doc["output_dir"] = value
        with pytest.raises(ConfigError):
            config_from_dict(doc)
        path.write_text(yaml.safe_dump(doc))
        for command in ("check", "simulate"):
            capsys.readouterr()
            assert main([command, "--config", str(path)]) == 2
            assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"
    assert sorted(os.listdir(tmp_path)) == before
    doc = config_to_dict(small_config())
    doc["limit"]["max_terms"] = 512.0
    assert config_from_dict(doc).limit.max_terms == 512
    # unknown keys are errors at every level, also the withdrawn limit.degree_cap
    with pytest.raises(ConfigError):
        law_from_dict({"family": "poisson", "lam": 2.0, "lamda": 3.0})
    for block, key in [(None, "limits"), ("environment", "weight"), ("displacement", "atoms"),
                       ("displacement", "weights"), ("simulation", "reps"), ("limit", "u_max"),
                       ("limit", "degree_cap"), ("comparison", "ks_tol")]:
        doc = config_to_dict(small_config())
        (doc[block] if block else doc)[key] = [1.0]
        with pytest.raises(ConfigError):
            config_from_dict(doc)
        path.write_text(yaml.safe_dump(doc))
        assert main(["check", "--config", str(path)]) == 2
    # settings the simulator refuses are refused at load, by check as by simulate
    for key, value in [("top_k", 1), ("retain_delta", 0.0), ("jump_eta", -1.0), ("population_cap", 0)]:
        doc = config_to_dict(small_config())
        doc["simulation"][key] = value
        with pytest.raises(ConfigError):
            config_from_dict(doc)
        path.write_text(yaml.safe_dump(doc))
        for command in ("check", "simulate"):
            capsys.readouterr()
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"
    # angular broods must fit the coordinates, for every command
    for law in ({"family": "deterministic", "k": 3}, {"family": "poisson", "lam": 2.0}):
        doc = config_to_dict(small_config(displacement=DisplacementModel.diagonal_angular(2.0, 2, 0.5)))
        doc["environment"] = {"support": [law], "weights": [1.0]}
        with pytest.raises(ConfigError, match="2 angular coordinates"):
            config_from_dict(doc)
        path.write_text(yaml.safe_dump(json.loads(json.dumps(doc))))
        for command in ("check", "simulate", "limit"):
            capsys.readouterr()
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"
    # a limit command needs at least one limit draw
    for value in (0, -1):
        doc = config_to_dict(small_config())
        doc["limit"]["n_limit_samples"] = value
        with pytest.raises(ConfigError):
            config_from_dict(doc)
        path.write_text(yaml.safe_dump(doc))
        for command in ("check", "limit", "compare"):
            capsys.readouterr()
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"
    # a law whose child-count table would pass offspring._TABLE_MAX entries
    doc = config_to_dict(small_config())
    doc["environment"] = {"support": [{"family": "poisson", "lam": 1e6}], "weights": [1.0]}
    with pytest.raises(ConfigError, match="child-count table"):
        config_from_dict(doc)
    path.write_text(yaml.safe_dump(doc))
    capsys.readouterr()
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"
    path.write_text(yaml.safe_dump(config_to_dict(small_config())))
    for command in ("simulate", "limit"):
        for reps in ("-3", "0", "abc", "2.5"):
            capsys.readouterr()
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--reps", reps]) == 2
            assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"
    # a seed is an integer >= 0, in the config as on the command line
    doc = config_to_dict(small_config())
    doc["seed"] = -1
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(doc)
    bad_seed = tmp_path / "bad_seed.yaml"
    bad_seed.write_text(yaml.safe_dump(doc))
    runs = [[str(bad_seed)]] + [[str(path), "--seed", seed] for seed in ("-1", "abc", "2.5")]
    for args in runs:
        for command in ("check", "simulate", "limit", "compare"):
            capsys.readouterr()
            assert main([command, "--out", str(tmp_path / "out"), "--config"] + args) == 2
            captured = capsys.readouterr()
            assert json.loads(captured.out)["error"] == "ConfigError" and not captured.err


def write_config(tmp_path, cfg) -> str:
    path = tmp_path / "exp.yaml"
    path.write_text(dump_config(cfg))
    return str(path)


def test_cli_check(tmp_path, capsys):
    cfg = small_config(output_dir=str(tmp_path / "out"))
    code = main(["check", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    assert "SupercriticalOK" in capsys.readouterr().out
    assert os.path.exists(tmp_path / "out" / "check.json")


# a = E[1/m(Y)]: 0.5; 0.2/0.9 + 0.8/4 = 0.42; 0.5/0.5 + 0.5/10 = 1.05
TAIL_CASES = [
    (EnvironmentModel.single(Deterministic(2)), "deterministic", 0.5),
    (EnvironmentModel((Poisson(0.9), Poisson(4.0)), (0.2, 0.8)), "annealed", 0.2 / 0.9 + 0.8 / 4.0),
    (EnvironmentModel((Poisson(0.5), Poisson(10.0)), (0.5, 0.5)), "refused", 1.05),
]


@pytest.mark.parametrize("env, tail, a", TAIL_CASES, ids=[c[1] for c in TAIL_CASES])
def test_cli_check_reports_series_tail(tmp_path, capsys, env, tail, a):
    # the tail rule is reported, not judged: the verdict and exit code stay
    # those of the paper's assumptions, which all three environments meet
    cfg = small_config(environment=env, output_dir=str(tmp_path / "out"))
    assert main(["check", "--config", write_config(tmp_path, cfg)]) == 0
    doc = json.loads((tmp_path / "out" / "check.json").read_text())
    assert doc["verdict"] == "SupercriticalOK"
    assert doc["series_tail"] == tail
    assert doc["e_inverse_mean"] == pytest.approx(a, rel=1e-12)
    assert f"series tail:        {tail}" in capsys.readouterr().out


def test_cli_limit_prints_expected_tail_for_annealed_series(tmp_path, capsys):
    for env, tail, _ in TAIL_CASES[:2]:
        cfg = small_config(environment=env, output_dir=str(tmp_path / tail))
        assert main(["limit", "--config", write_config(tmp_path, cfg), "--reps", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("(tail <= ") == (4 if tail == "deterministic" else 0)
        assert out.count("(expected tail ") == (0 if tail == "deterministic" else 4)


def test_cli_simulate_deterministic_rows(tmp_path):
    cfg = small_config(
        simulation=SimSettings(n=(3,), replications=3, retain_delta=0.1),
        output_dir=str(tmp_path / "out"),
    )
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path]) == 0
    lines = (tmp_path / "out" / "summary_n3.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=") and "seed=1234" in lines[0]
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3
    z_col = lines[1].split(",").index("Z_n")
    assert all(r[z_col] == "8" for r in rows)


def test_cli_simulate_rerun_byte_identical(tmp_path):
    cfg = small_config(output_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path]) == 0
    first = (tmp_path / "out" / "summary_n4.csv").read_bytes()
    atoms_first = (tmp_path / "out" / "atoms_n4.csv").read_bytes()
    assert main(["simulate", "--config", path]) == 0
    assert (tmp_path / "out" / "summary_n4.csv").read_bytes() == first
    assert (tmp_path / "out" / "atoms_n4.csv").read_bytes() == atoms_first


def test_cli_simulate_rerun_elsewhere_equal_past_meta_line(tmp_path):
    # the config hash covers output_dir, so only the meta line follows --out
    cfg = small_config(output_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, cfg)
    for out in ("a", "b"):
        assert main(["simulate", "--config", path, "--out", str(tmp_path / out)]) == 0
    for name in ("summary_n4.csv", "atoms_n4.csv"):
        first = (tmp_path / "a" / name).read_bytes().split(b"\n", 1)
        second = (tmp_path / "b" / name).read_bytes().split(b"\n", 1)
        assert first[0] != second[0]
        assert first[1] == second[1]


def oracle_csv(header, rows, meta) -> bytes:
    """Reference CSV bytes: ``csv.writer`` with a per-value format.

    Ints and bools become ``%d``, NaN becomes ``nan``, other floats ``%.17g``.
    Kept independent of the row-level writer in ``brwre.cli``.
    """

    def fmt(value) -> str:
        if isinstance(value, (bool, np.bool_, int, np.integer)):
            return str(int(value))
        if isinstance(value, float) and math.isnan(value):
            return "nan"
        return "%.17g" % value

    buf = io.StringIO(newline="")
    buf.write(meta + "\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue().encode()


def oracle_atom_rows(measures):
    return [
        [i, loc, mult]
        for i, m in enumerate(measures)
        for loc, mult in zip(m.locations, m.multiplicities)
    ]


def test_row_writer_matches_csv_oracle(tmp_path):
    meta = "# config_hash=0123456789ab seed=5"
    values = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300, 0.1, np.float64(-2.5)]
    rows = [[i, x, i % 2 == 1, np.bool_(i % 3 == 0), np.int64(7 * i)] for i, x in enumerate(values)]
    header = ["i", "x", "flag", "np_flag", "count"]
    path = tmp_path / "rows.csv"
    columns = [np.array(column) for column in zip(*rows)]
    assert [c.dtype.kind for c in columns] == ["i", "f", "b", "b", "i"]
    csv_writer.write_csv(str(path), header, columns, meta)
    expected = oracle_csv(header, rows, meta)
    assert path.read_bytes() == expected
    assert expected.startswith(meta.encode() + b"\ni,x,flag,np_flag,count\r\n")
    assert expected.endswith(b"\r\n") and expected.count(b"\r\n") == len(rows) + 1

    # an empty measure (an extinct replication) writes no rows; a measure
    # longer than one block is split across blocks
    long_locs = np.arange(1, 2 * csv_writer.BLOCK_ROWS + 6) / 3.0
    measures = [
        PointMeasure(
            np.array([-np.inf, -1e300, -5e-324, 5e-324, 0.1, 1e300, np.inf]),
            np.array([1, 2, 3, 2**40, 1, 5, 9], dtype=np.int64),
        ),
        PointMeasure.empty(),
        PointMeasure(long_locs, np.arange(1, long_locs.size + 1, dtype=np.int64)),
        PointMeasure.empty(),
    ]
    header = ["rep", "location", "multiplicity"]
    path = tmp_path / "atoms.csv"
    cli._write_atoms(str(path), "rep", measures, meta)
    assert path.read_bytes() == oracle_csv(header, oracle_atom_rows(measures), meta)
    cli._write_atoms(str(path), "rep", [PointMeasure.empty()], meta)
    assert path.read_bytes() == oracle_csv(header, [], meta)


def test_atom_writer_holds_one_block(tmp_path, monkeypatch):
    # the measures exist before tracing starts; the writer adds one block of
    # 2^13 atom rows (1.1 MiB here), where concatenating the 400 000 rows of
    # 200 measures before the first block took 10 MiB
    calls = []
    format_rows = csv_writer.format_rows
    monkeypatch.setattr(csv_writer, "format_rows", lambda block: calls.append(len(block[0])) or format_rows(block))
    rng = np.random.default_rng(3)
    path = tmp_path / "atoms.csv"
    peaks = []
    for n_measures in (20, 200):
        measures = [PointMeasure.from_locations(rng.random(2000) + 1.0) for _ in range(n_measures)]
        calls.clear()
        tracemalloc.start()
        try:
            cli._write_atoms(str(path), "rep", measures, "# m")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        rows = 2000 * n_measures
        # full blocks whatever the measures' sizes, so no extra formatting calls
        assert calls == [csv_writer.BLOCK_ROWS] * (rows // csv_writer.BLOCK_ROWS) + [rows % csv_writer.BLOCK_ROWS]
        assert path.read_bytes().count(b"\r\n") == rows + 1
    assert peaks[1] < 2 * 2**20 and peaks[1] < peaks[0] + 2**18, peaks


def _formatted(column) -> list:
    """Fields the column writer formats for one column, one per row."""
    return csv_writer.format_rows([np.asarray(column)]).split(b"\r\n")[:-1]


def test_column_formatter_matches_percent_format():
    rng = np.random.default_rng(20240810)
    bit_patterns = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False).view(np.float64)
    # random mantissas on every binade of the range that %.17g writes in fixed notation
    binades = rng.integers(1023 - 14, 1023 + 57, 100_000, dtype=np.uint64) << np.uint64(52)
    mantissas = rng.integers(0, 2**52, 100_000, dtype=np.uint64)
    signs = rng.integers(0, 2, 100_000, dtype=np.uint64) << np.uint64(63)
    fixed_range = (signs | binades | mantissas).view(np.float64)
    decades = 10.0 ** np.arange(-6, 19)
    near_decades = np.concatenate([decades, np.nextafter(decades, 0), np.nextafter(decades, np.inf)])
    # (2m+1)/4 in [1e15, 2.25e15) has 16 integer digits and ends in .25 or
    # .75: an exact tie at the 17th digit, which rounds half to even
    ties = (2 * rng.integers(2 * 10**15, 45 * 10**14, 20_000) + 1) / 4.0
    edges = np.array([1e-4, 1e17])
    edges = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, np.finfo(float).max, 1.0, 0.5]
    for values in (bit_patterns, fixed_range, near_decades, -near_decades, ties, edges, -edges, specials):
        values = np.asarray(values, dtype=float)
        assert _formatted(values) == [b"%.17g" % v for v in values.tolist()]

    ints = np.array([0, 1, -1, 9, 10, -10, 99, 2**32 - 1, 2**32, -(2**32), 10**18, -(2**63), 2**63 - 1])
    assert _formatted(ints) == [b"%d" % v for v in ints.tolist()]
    for width in range(1, 19):
        column = rng.integers(-(10**width), 10**width, 1000)
        assert _formatted(column) == [b"%d" % v for v in column.tolist()]
    flags = np.array([True, False, True])
    assert _formatted(flags) == [b"1", b"0", b"1"]


def test_cli_compare_without_survivors_exits_3(tmp_path, capsys):
    # unconditioned, the one replication of seed 6 dies out, so n=12 has no
    # normalised maximum to compare
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    mixture = load_config(os.path.join(root, "configs", "mixture_poisson.yaml"))
    cfg = dataclasses.replace(
        mixture,
        simulation=dataclasses.replace(mixture.simulation, condition_on_survival=False),
        limit=dataclasses.replace(mixture.limit, n_limit_samples=50),
        output_dir=str(tmp_path / "out"),
    )
    code = main(["compare", "--config", write_config(tmp_path, cfg), "--seed", "6", "--reps", "1"])
    assert code == 3
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["error"] == "NoSurvivingReplication"
    assert "n=12" in record["message"] and "of the 1 replications" in record["message"]


def test_cli_csv_files_match_csv_oracle(tmp_path):
    # Poisson(2) dies out with probability ~0.2; without survival conditioning
    # some replications are extinct and write no atom rows and NaN extremes
    cfg = small_config(
        environment=EnvironmentModel.single(Poisson(2.0)),
        simulation=SimSettings(
            n=(3, 5), replications=30, retain_delta=0.1, top_k=3, condition_on_survival=False
        ),
        limit=LimitConfig(n_limit_samples=40, u_min=0.2),
        output_dir=str(tmp_path / "out"),
    )
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path]) == 0
    assert main(["limit", "--config", path]) == 0
    out = tmp_path / "out"
    meta = cli._meta_line(load_config(path))
    k = cfg.simulation.top_k

    for n in cfg.simulation.n:
        outcomes = brw.run_replications(cfg.sim_config(n), cfg.simulation.replications)
        assert any(o.extinct for o in outcomes)
        header = (
            ["rep", "n", "Z_n", "pi_n", "B_n"]
            + [f"M{i + 1}" for i in range(k)]
            + [f"min{i + 1}" for i in range(k)]
            + ["W_n", "two_big_jump_flag", "restarts"]
        )
        rows = []
        for rep, o in enumerate(outcomes):
            tops = [o.top[i] if i < o.top.size else float("nan") for i in range(k)]
            bots = [o.bottom[i] if i < o.bottom.size else float("nan") for i in range(k)]
            rows.append(
                [rep, n, int(o.z[-1]), o.env_seq.pi[-1], o.b_n]
                + tops
                + bots
                + [o.w_n, o.diagnostics.paths_with_two_big_jumps > 0, o.restarts]
            )
        summary = (out / f"summary_n{n}.csv").read_bytes()
        assert summary == oracle_csv(header, rows, meta)
        assert b"nan" in summary
        atoms = (out / f"atoms_n{n}.csv").read_bytes()
        atom_header = ["rep", "location", "multiplicity"]
        assert atoms == oracle_csv(atom_header, oracle_atom_rows(o.atoms for o in outcomes), meta)

    size = cfg.limit.n_limit_samples
    q_samples = cli._draw_q_samples(cfg, size)
    columns = (q_samples.q.tolist(), q_samples.w.tolist(), q_samples.c_value.tolist())
    q_rows = [[i, *row] for i, row in enumerate(zip(*columns))]
    assert (out / "q_samples.csv").read_bytes() == oracle_csv(
        ["sample", "q", "w", "c_value"], q_rows, meta
    )
    alpha = cfg.displacement.alpha
    cdf_rows = [[x, limit_max_cdf(q_samples, x, alpha)] for x in cfg.comparison.grid]
    assert (out / "limit_cdf.csv").read_bytes() == oracle_csv(["x", "cdf"], cdf_rows, meta)
    draws, _ = cli._draw_pp(cfg, size)
    assert (out / "limit_pp.csv").read_bytes() == oracle_csv(
        ["draw", "location", "multiplicity"], oracle_atom_rows(draws), meta
    )
    for name in ("summary_n3.csv", "atoms_n5.csv", "q_samples.csv", "limit_pp.csv"):
        first, rest = (out / name).read_bytes().split(b"\n", 1)
        assert first == meta.encode() and not first.endswith(b"\r")
        assert rest.count(b"\n") == rest.count(b"\r\n") > 1


def test_cli_simulate_threads_byte_identical(tmp_path):
    cfg = small_config(
        environment=EnvironmentModel.single(Poisson(2.0)),
        simulation=SimSettings(n=(3, 5), replications=12, retain_delta=0.1),
        output_dir=str(tmp_path / "out"),
    )
    path = write_config(tmp_path, cfg)
    names = ["summary_n3.csv", "atoms_n3.csv", "summary_n5.csv", "atoms_n5.csv"]
    assert main(["simulate", "--config", path, "--threads", "1"]) == 0
    serial = {name: (tmp_path / "out" / name).read_bytes() for name in names}
    assert main(["simulate", "--config", path, "--threads", "2"]) == 0
    for name in names:
        assert (tmp_path / "out" / name).read_bytes() == serial[name], name


def test_cli_population_cap_error_record(tmp_path, capsys):
    cfg = small_config(
        simulation=SimSettings(n=(3,), replications=2, population_cap=4),
        output_dir=str(tmp_path / "out"),
    )
    code = main(["simulate", "--config", write_config(tmp_path, cfg)])
    assert code == 3
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["error"] == "PopulationCapExceeded"


def test_cli_bad_config_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.yaml")
    assert main(["check", "--config", missing]) == 2
    # a document that does not parse is a configuration error, with its record
    broken = tmp_path / "broken.yaml"
    broken.write_text("a: [1, 2\n")
    capsys.readouterr()
    assert main(["check", "--config", str(broken)]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == "ConfigError" and "cannot parse config" in record["message"]
    for loader in (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        with pytest.raises(yaml.parser.ParserError):
            yaml.load(broken.read_text(), Loader=loader)


def test_config_loaders_build_equal_documents(tmp_path):
    # the libyaml loader, where PyYAML has it, reads every document as the
    # pure-Python safe loader does
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    texts = [dump_config(small_config(environment=EnvironmentModel((Poisson(2.0), Geometric(0.4)), (0.3, 0.7))))]
    for name in sorted(os.listdir(os.path.join(root, "configs"))):
        with open(os.path.join(root, "configs", name)) as fh:
            texts.append(fh.read())
    assert len(texts) >= 3
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert config._LOADER is loader
    for text in texts:
        doc = yaml.load(text, Loader=loader)
        assert doc == yaml.safe_load(text) and isinstance(doc, dict)


def test_cli_limit_constants(tmp_path, capsys):
    cfg = small_config(output_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, cfg)
    assert main(["limit", "--config", path, "--reps", "400"]) == 0
    doc = json.loads((tmp_path / "out" / "constants.json").read_text())
    c3 = doc["constants"]["cluster_size"]
    assert abs(c3["value"] - 2.0) <= cfg.limit.series_tol * 2.0 + 1e-12
    assert c3["tail_bound"] <= cfg.limit.series_tol * 2.0
    cdf = (tmp_path / "out" / "limit_cdf.csv").read_text().splitlines()
    x_row = [line for line in cdf[2:] if line.startswith("1,")][0]
    assert abs(float(x_row.split(",")[1]) - math.exp(-2.0)) < 1e-6
    assert os.path.exists(tmp_path / "out" / "q_samples.csv")
    assert os.path.exists(tmp_path / "out" / "limit_pp.csv")


def test_cli_limit_draws_concatenate_blocks(tmp_path, monkeypatch):
    # 19 draws in blocks of 8: every column, measure and scale equals, with
    # ==, those of the block calls 8, 8 and 3 on a fresh generator of the
    # same stream id (a random environment, so no two draws are alike), and
    # so do the rows `limit --reps 19` writes to limit_pp.csv
    cfg = small_config(
        environment=EnvironmentModel((Poisson(2.0), Poisson(3.0)), (0.5, 0.5)),
        displacement=DisplacementModel.iid(2.0, 0.5),
        output_dir=str(tmp_path / "out"),
    )
    monkeypatch.setattr(cli, "_BLOCK", 8)
    q = cli._draw_q_samples(cfg, 19)
    measures, scales = cli._draw_pp(cfg, 19)
    model = (cfg.displacement, cfg.environment, cfg.limit)
    rng = brw.replication_rng(cfg.seed, cli._Q_STREAM)
    q_blocks = [sample_q(*model, rng, size=k) for k in (8, 8, 3)]
    for field in ("q", "w", "c_value"):
        column = getattr(q, field)
        assert column.size == 19 and len(set(column.tolist())) > 1
        assert column.tolist() == [x for b in q_blocks for x in getattr(b, field).tolist()]
    rng = brw.replication_rng(cfg.seed, cli._PP_STREAM)
    pp_blocks = [sample_limit_point_process(*model, rng, size=k) for k in (8, 8, 3)]
    expected = [m for block, _ in pp_blocks for m in block]
    assert len(measures) == len(expected) == 19
    for m, e in zip(measures, expected):
        assert m.locations.tolist() == e.locations.tolist()
        assert m.multiplicities.tolist() == e.multiplicities.tolist()
    assert scales.tolist() == [s for _, block in pp_blocks for s in block.tolist()]
    path = write_config(tmp_path, cfg)
    assert main(["limit", "--config", path, "--reps", "19"]) == 0
    assert (tmp_path / "out" / "limit_pp.csv").read_bytes() == oracle_csv(
        ["draw", "location", "multiplicity"], oracle_atom_rows(expected), cli._meta_line(load_config(path))
    )


def test_cli_compare_pass_and_fail(tmp_path):
    # balanced signs keep the small-n bias mild, so generous tolerances pass;
    # zero tolerances must fail on Monte Carlo noise alone
    out = str(tmp_path / "out")
    base = dict(
        displacement=DisplacementModel.iid(2.0, 0.5),
        simulation=SimSettings(n=(8,), replications=150, retain_delta=0.1),
        limit=LimitConfig(n_limit_samples=400, u_min=0.2),
        output_dir=out,
    )
    cfg = small_config(
        comparison=ComparisonSettings(
            grid=(1.0, 2.0), ks_tolerance=0.9, count_tv_tolerance=0.9, laplace_tolerance=0.9
        ),
        **base,
    )
    path = write_config(tmp_path, cfg)
    assert main(["compare", "--config", path]) == 0
    report = json.loads((tmp_path / "out" / "compare.json").read_text())
    assert report["pass"] is True

    strict = small_config(
        comparison=ComparisonSettings(
            grid=(1.0, 2.0), ks_tolerance=0.0, count_tv_tolerance=0.0, laplace_tolerance=0.0
        ),
        **base,
    )
    assert main(["compare", "--config", write_config(tmp_path, strict)]) == 1


def test_cli_compare_matches_general_statistics(tmp_path):
    # compare reads TV and every Laplace value off one count matrix per side;
    # the general path, on the same replications and limit draws, must give
    # every reported value bit for bit
    cfg = small_config(
        displacement=DisplacementModel.iid(2.0, 0.5),
        simulation=SimSettings(n=(6,), replications=40, retain_delta=0.1),
        comparison=ComparisonSettings(grid=(0.1, 0.5, 1.0, 2.0), count_x=1.0),
        output_dir=str(tmp_path / "out"),
    )
    path = write_config(tmp_path, cfg)
    # x = 0.1 is not above retain_delta, so it has no Laplace row and raises nothing
    assert main(["compare", "--config", path]) in (0, 1)
    report = json.loads((tmp_path / "out" / "compare.json").read_text())["n"]["6"]

    cfg = load_config(path)
    grid, alpha = cfg.comparison.grid, cfg.displacement.alpha
    alive = [o for o in brw.run_replications(cfg.sim_config(6), 40) if not o.extinct]
    finite = [o.atoms for o in alive]
    q_samples = cli._draw_q_samples(cfg, cfg.limit.n_limit_samples)
    pp_draws, pp_scales = cli._draw_pp(cfg, cfg.limit.n_limit_samples)
    ecdf = stats.Ecdf.from_samples([o.top[0] / o.b_n for o in alive])
    assert report["ks"] == stats.ks_distance(ecdf, lambda x: limit_max_cdf(q_samples, x, alpha), grid)
    assert [r["limit_cdf"] for r in report["grid"]] == [limit_max_cdf(q_samples, x, alpha) for x in grid]
    assert report["count_tv"]["tv"] == stats.count_distribution_tv(
        [m.count_above(1.0) for m in finite], [m.count_above(1.0) for m in pp_draws]
    )
    floor = max(0.1, float(pp_scales.max()) * cfg.limit.u_min)
    expected = []
    for x in (x for x in grid if x > floor):
        f = stats.TestFunction("indicator_above", x)
        fin, lim = stats.laplace_estimate(finite, f, 0.1), stats.laplace_estimate(pp_draws, f)
        expected.append({"x": x, "finite": fin, "limit": lim, "abs_diff": abs(fin - lim)})
    assert report["laplace"] == expected and len(expected) >= 2
    assert 0.1 not in [r["x"] for r in report["laplace"]]
    with pytest.raises(SupportBelowRetention):
        stats.laplace_estimate(finite, stats.TestFunction("indicator_above", 0.1), 0.1)


def test_threads_flag_default_and_bad_values(tmp_path, capsys):
    from brwre.cli import build_parser

    args = build_parser().parse_args(["simulate", "--config", "x.yaml"])
    assert args.threads == 1
    # a worker count that is not an integer >= 1 is a configuration error;
    # none of these starts a worker
    path = write_config(tmp_path, small_config(output_dir=str(tmp_path / "out")))
    for value in ("-3", "0", "abc", "2.5"):
        for command in ("check", "simulate"):
            capsys.readouterr()
            assert main([command, "--config", path, "--threads", value]) == 2
            record = json.loads(capsys.readouterr().out)
            assert record["error"] == "ConfigError" and "threads" in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("command", ["check", "compare"])
def test_cli_closed_stdout_exits_141(tmp_path, command, unbuffered):
    # a reader that is gone before the first line (`| head -0`): unbuffered,
    # the first print meets the closed pipe; buffered, the last flush does
    path = write_config(tmp_path, small_config(output_dir=str(tmp_path / "out")))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "brwre.cli", command, "--config", path, "--reps", "5"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_cli_diagnostics(tmp_path):
    cfg = small_config(
        simulation=SimSettings(n=(3, 5), replications=40, early_rho=2),
        output_dir=str(tmp_path / "out"),
    )
    assert main(["diagnostics", "--config", write_config(tmp_path, cfg)]) == 0
    doc = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert set(doc["n"]) == {"3", "5"}
    for rec in doc["n"].values():
        assert 0.0 <= rec["two_jump_fraction"] <= 1.0
        assert 0.0 <= rec["early_jump_fraction"] <= 1.0
