import dataclasses
import importlib.util
import json
import os

import pytest

from brwre import brw
from brwre.config import SimSettings, dump_config, load_config
from brwre.offspring import Deterministic, Finite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "output_digests.txt")


def _load(name, *path):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tool(name):
    return _load(name, "tools", f"{name}.py")


def _write_run(checkout, workload, seed, wall_s):
    out = os.path.join(checkout, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    result = {
        "attempted": 5,
        "failed": 0,
        "metrics": {name: {"value": wall_s if name == "wall_s" else 1.0, "unit": "s"}
                    for name in ("setup_s", "wall_s", "cpu_s")},
        "env": {"python": "3", "numpy": "2", "nproc": 2, "machine": "x86_64"},
    }
    with open(os.path.join(out, f"{workload}-seed{seed}-trace0.json"), "w") as fh:
        json.dump(result, fh)


def test_bench_record_pairs_seeds_and_applies_gain_rule(tmp_path):
    bench_record = _load_tool("bench_record")
    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    old = [1.0, 1.1, 0.9, 1.2, 1.0, 1.05, 0.95, 1.1, 1.0, 0.98]
    for seed, wall in enumerate(old, start=11):
        _write_run(parent, "limit-mixture", seed, wall)
        _write_run(change, "limit-mixture", seed, wall / 3)
    _write_run(parent, "limit-mixture", 99, 1.0)  # unpaired: left out
    _write_run(change, "compare-binary", 11, 1.0)  # no parent run: workload left out
    out = str(tmp_path / "BENCH.json")
    assert bench_record.main(["--parent", parent, "--change", change, "--out", out]) == 0
    with open(out) as fh:
        rec = json.load(fh)
    assert list(rec["workloads"]) == ["limit-mixture"]
    entry = rec["workloads"]["limit-mixture"]
    assert entry["seeds"] == list(range(11, 21))
    wall = entry["metrics"]["wall_s"]
    assert (wall["pairs"], wall["wins"], wall["losses"], wall["ties"]) == (10, 10, 0, 0)
    assert wall["gain"] and wall["parent"]["median"] == 1.0
    setup = entry["metrics"]["setup_s"]
    assert setup["ties"] == 10 and not setup["gain"]


def test_output_digests_derives_uncovered_scenarios(tmp_path):
    paths = _load_tool("output_digests").derived_configs(str(tmp_path))
    cfgs = [load_config(path) for path in paths]
    assert sorted(cfg.displacement.mode for cfg in cfgs) == [
        "discrete_angular", "discrete_angular", "discrete_angular", "full_dep", "full_dep", "iid", "iid", "iid", "iid",
        "iid", "iid",
    ]
    # a one-sided negative model draws its steps and limit points without a sign category
    assert any(cfg.displacement.mode == "iid" and cfg.displacement.p == 0.0 for cfg in cfgs)
    # a tail index of 0.25 puts norming constants past 1e17, which the writer
    # formats through its %.17g fallback
    assert any(cfg.displacement.alpha == 0.25 for cfg in cfgs)
    # binary trees of 2^18 leaves fill two simulator chunks, each of which
    # splits its uniforms into signs and magnitudes (p < 1) or atoms and
    # radii (angular), in every mode
    wide = [cfg for cfg in cfgs if cfg.simulation.n == (18,)]
    assert 2**18 >= 2 * brw.LEAF_CHUNK
    assert sorted(cfg.displacement.mode for cfg in wide) == ["discrete_angular", "full_dep", "iid"]
    assert all(cfg.environment.support == (Deterministic(2),) and 0.0 < cfg.displacement.p < 1.0 for cfg in wide)
    # without survival conditioning extinct replications write NaN fields and no atoms
    assert any(not cfg.simulation.condition_on_survival for cfg in cfgs)
    assert any(isinstance(law, Finite) for cfg in cfgs for law in cfg.environment.support)
    # a law of mean <= 1 puts the quenched series on the annealed tail rule
    assert any(law.mean() <= 1.0 for cfg in cfgs for law in cfg.environment.support)


def test_output_digests_lists_commands_that_write_nothing(tmp_path, monkeypatch):
    # a population cap of 4 stops every simulating command with exit 3 before it writes
    base = load_config(os.path.join(ROOT, "configs", "binary_iid.yaml"))
    capped = dataclasses.replace(base, simulation=SimSettings(n=(3,), replications=2, population_cap=4))
    path = tmp_path / "capped.yaml"
    path.write_text(dump_config(capped))
    monkeypatch.chdir(tmp_path)
    lines = _load_tool("output_digests").digest_config(str(path), 1, 1)
    assert "exit 0  capped/check" in lines and "exit 3  capped/simulate" in lines
    assert not any(line.endswith("capped/simulate/summary_n3.csv") for line in lines)


def test_perfbench_tracer_installs():
    # the tracer patches through vars(owner)[attr]: a renamed or inherited
    # attribute breaks every traced benchmark run
    tracer = _load("perfbench_layers", "perfbench", "layers.py").Tracer()
    patched = []
    try:
        tracer.install()
        patched = list(tracer._undo)
        for owner, attr, raw in patched:
            new = vars(owner)[attr]
            unwrap = (lambda f: f.__func__) if isinstance(raw, classmethod) else (lambda f: f)
            assert unwrap(new).__wrapped__ is unwrap(raw)
    finally:
        tracer.uninstall()
    assert len(patched) > 20
    for owner, attr, raw in patched:
        assert vars(owner)[attr] is raw


def test_perfbench_tracer_traces_block_limit_draws():
    # `--trace 1` reads the limit layer through these names; a block draw
    # must still pass through each, and the series counter must stay an int
    from brwre import limit_laws
    from brwre.displacement import DisplacementModel
    from brwre.environment import EnvironmentModel

    patched = {
        (limit_laws, "sample_q"), (limit_laws, "sample_limit_point_process"),
        (limit_laws, "sample_martingale_limit"), (limit_laws, "_series_terms"),
        (limit_laws, "_general_q_series"), (limit_laws.ClusterSampler, "__init__"),
        (limit_laws.ClusterSampler, "sample_size"), (limit_laws.EnvStream, "simulate_population"),
    }
    for owner, attr in patched:
        assert attr in vars(owner), attr
    env = EnvironmentModel.single(Deterministic(2))
    cfg = limit_laws.LimitConfig(u_min=0.2)
    sv = limit_laws._series_terms("cluster_size", limit_laws.EnvStream(env, brw.replication_rng(1, 0), 3), cfg)[0]
    assert type(sv.terms_used) is int and sv.terms_used == 3 * sv.row_terms[0]

    tracer = _load("perfbench_layers", "perfbench", "layers.py").Tracer()
    try:
        tracer.install()
        assert {(owner, attr) for owner, attr, _ in tracer._undo} >= patched
        rng = brw.replication_rng(1, 1)
        limit_laws.sample_q(DisplacementModel.iid(2.0, 0.5), env, cfg, rng, size=4)
        limit_laws.sample_limit_point_process(DisplacementModel.iid(2.0, 0.5), env, cfg, rng, size=4)
        limit_laws.sample_q(DisplacementModel.diagonal_angular(2.0, 2), env, cfg, rng, size=2)
    finally:
        tracer.uninstall()
    for name in ("sample_q", "sample_limit_point_process", "sample_martingale_limit", "_series_terms",
                 "_general_q_series", "ClusterSampler.__init__", "ClusterSampler.sample_size",
                 "EnvStream.simulate_population"):
        assert tracer.calls(f"limit_laws.{name}") >= 1, name
    # every row of a binary block sums the same number of terms: 4 Q draws,
    # 4 point-process draws (two series each) and 2 general Q draws
    stream = limit_laws.EnvStream(env, brw.replication_rng(1, 2))
    size, nxt = (limit_laws._series_terms(k, stream, cfg)[0].terms_used for k in ("cluster_size", "_inverse_mean_next"))
    general = limit_laws._general_q_series(DisplacementModel.diagonal_angular(2.0, 2), stream, cfg).terms_used
    terms = tracer.counts["series_terms"]
    assert type(terms) is int and terms == 4 * size + 4 * (size + nxt) + 2 * general


def test_output_digests_past_meta_ignores_only_the_config_hash(tmp_path, monkeypatch):
    # one config under two names: the output directory, and so the config
    # hash, differs, and nothing else
    base = load_config(os.path.join(ROOT, "configs", "binary_iid.yaml"))
    small = dataclasses.replace(
        base,
        simulation=SimSettings(n=(3,), replications=2),
        limit=dataclasses.replace(base.limit, n_limit_samples=20),
    )
    for name in ("one", "two"):
        (tmp_path / f"{name}.yaml").write_text(dump_config(small))
    monkeypatch.chdir(tmp_path)
    tool = _load_tool("output_digests")

    def listing(name, past_meta):
        lines = tool.digest_config(str(tmp_path / f"{name}.yaml"), 2, 1, past_meta)
        return [line.replace(f"{name}/", "") for line in lines]

    plain, past = listing("one", False), listing("two", True)
    assert len(plain) == len(past)
    data = [i for i, line in enumerate(plain) if line.endswith((".csv", ".json"))]
    assert {line.rsplit(".", 1)[1] for line in map(plain.__getitem__, data)} == {"csv", "json"}
    # the plain digests differ on every data file, and only there
    assert [i for i, (a, b) in enumerate(zip(plain, listing("two", False))) if a != b] == data
    assert listing("one", True) == past
    # a JSON file past its meta field is its bytes without the meta line
    with open("two/check/check.json") as fh:
        lines = fh.read().split("\n")
    assert lines[1].startswith('  "meta": ')
    without = "\n".join(lines[:1] + lines[2:]).encode()
    assert tool.file_digest("two/check/check.json", True) == tool.sha256(without)


def _moved(want, got):
    """The lines of two digest listings that differ, grouped by scenario and command."""
    # a line is "<value>  <path>", where the path starts with <scenario>/<command>
    want, got = ({line.split("  ", 1)[1]: line for line in lines} for lines in (want, got))
    groups = {}
    for path in sorted(want.keys() | got.keys()):
        if want.get(path) != got.get(path):
            group = groups.setdefault("/".join(path.split("/")[:2]), [])
            group += [f"  {sign} {side[path]}" for sign, side in (("-", want), ("+", got)) if path in side]
    return "\n".join(f"{group}:\n" + "\n".join(lines) for group, lines in groups.items())


def test_output_digests_match_golden_listing(tmp_path, monkeypatch):
    # every output byte of every command on every scenario, against the
    # committed listing: a refactor moves none, and a stream shift
    # regenerates the file (tools/output_digests.py says how)
    tool = _load_tool("output_digests")
    with open(GOLDEN) as fh:
        lines = fh.read().splitlines()
    header = [line for line in lines if line.startswith("# ")]
    if header[:2] != tool.header()[:2]:
        # another numpy version or SIMD target set may move the last bit of a draw
        made, here = ("; ".join(line[2:] for line in h[:2]) for h in (header, tool.header()))
        pytest.xfail(f"the golden listing is of {made}, this host runs {here}")
    listings = {}
    for threads in (1, 2):
        (tmp_path / str(threads)).mkdir()
        monkeypatch.chdir(tmp_path / str(threads))
        listings[threads] = tool.listing(20, threads)
    moved = _moved(lines[len(header):], listings[1])
    assert not moved, f"outputs moved from {os.path.relpath(GOLDEN, ROOT)}:\n{moved}"
    assert listings[2] == listings[1]
