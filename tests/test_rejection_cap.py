"""The one give-up rule: every survival restart and rejection sampler stops
after ``errors._REJECTION_CAP`` attempts with RejectionCapExceeded.  A block
draw redoes its rejected rows in rounds, and a round is one attempt.

The call-site tests lower the cap by monkeypatching; the CLI tests lower it in
a subprocess and bound the run with a timeout, so a loop that ignores the cap
fails the test instead of hanging it.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from brwre import errors, limit_laws
from brwre.brw import SimConfig, simulate, simulate_naive
from brwre.config import dump_config, load_config
from brwre.displacement import DisplacementModel
from brwre.environment import EnvironmentModel
from brwre.errors import RejectionCapExceeded
from brwre.limit_laws import ClusterSampler, EnvStream, LimitConfig, sample_martingale_limit
from brwre.offspring import Deterministic, Poisson

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARY = EnvironmentModel.single(Deterministic(2))
# subcritical: a tree survives 40 generations with probability below 0.5^40
SUBCRITICAL = EnvironmentModel.single(Poisson(0.5))
CAP = 50


@pytest.fixture
def small_cap(monkeypatch):
    monkeypatch.setattr(errors, "_REJECTION_CAP", CAP)


def test_first_accepted_returns_first_result():
    seen = []

    def attempt(k):
        seen.append(k)
        return k if k == 3 else None

    assert errors.first_accepted(attempt, "widget") == 3
    assert seen == [0, 1, 2, 3]


def test_first_accepted_gives_up_at_cap(small_cap):
    seen = []
    with pytest.raises(RejectionCapExceeded, match=f"widget: no accepted attempt in {CAP} attempts"):
        errors.first_accepted(seen.append, "widget")
    assert seen == list(range(CAP))


@pytest.mark.parametrize("sim", [simulate, simulate_naive])
def test_simulator_survival_restart_gives_up(small_cap, sim):
    cfg = SimConfig(n=40, env=SUBCRITICAL, disp=DisplacementModel.iid(2.0, 1.0), seed=1)
    with pytest.raises(RejectionCapExceeded, match=f"survival restart.*{CAP} attempts"):
        sim(cfg)


def test_rounds_redo_rejected_rows_and_back_off():
    # every round redoes the rejected rows while some row is accepted; after
    # a round that accepts none, the first rejected row alone
    seen = []
    accept = {0: [1, 3], 1: [], 2: [], 3: [0], 4: [2, 4]}

    def attempt(rows):
        seen.append(rows.tolist())
        return np.isin(rows, accept[len(seen) - 1])

    limit_laws._in_rounds(attempt, 5, "widget")
    assert seen == [[0, 1, 2, 3, 4], [0, 2, 4], [0], [0], [2, 4]]


def test_martingale_survival_restart_gives_up(small_cap, rng):
    assert sample_martingale_limit(SUBCRITICAL, 30, False, rng, size=1)[0] == 0.0
    with pytest.raises(RejectionCapExceeded, match=f"martingale limit W.*{CAP} attempts"):
        sample_martingale_limit(SUBCRITICAL, 30, True, rng, size=1)
    # in a block, the rows that never survive exhaust the rounds
    with pytest.raises(RejectionCapExceeded, match=f"martingale limit W.*{CAP} attempts"):
        sample_martingale_limit(SUBCRITICAL, 30, True, rng, size=5)


def _dying_walks(monkeypatch, keep=()):
    """Patch the population walk: every row dies out except those whose
    generation is in ``keep``; returns the (rows, gens) of every call."""
    calls = []

    def walk(self, rows, gens, rng):
        calls.append((rows.tolist(), gens.tolist()))
        return np.isin(gens, keep).astype(np.int64)

    monkeypatch.setattr(EnvStream, "simulate_population", walk)
    return calls


def test_cluster_size_draw_gives_up(small_cap, monkeypatch, rng):
    # a size draw repeats the population walk until Z_i >= 1, and a walk
    # that always dies out never gets there; the generations i are fixed here
    sampler = ClusterSampler(EnvStream(BINARY, rng), LimitConfig())
    calls = _dying_walks(monkeypatch, keep=(2,))
    gens = [np.array([3]), np.array([3, 2, 5])]
    draw_categories = limit_laws._draw_categories
    monkeypatch.setattr(limit_laws, "_draw_categories", lambda table, rows, rng: gens.pop(0))
    with pytest.raises(RejectionCapExceeded, match=f"cluster size draw.*{CAP} attempts"):
        sampler.sample_size(rng, [0])
    assert calls == [([0], [3])] * CAP
    # in a block, each round redoes only the draws that died: here the one
    # at generation 2 survives its first walk.  After a round that accepts
    # none, only the first dead draw is redone
    calls.clear()
    with pytest.raises(RejectionCapExceeded, match=f"cluster size draw.*{CAP} attempts"):
        sampler.sample_size(rng, np.zeros(3, dtype=int))
    assert calls == [([0, 0, 0], [3, 2, 5]), ([0, 0], [3, 5])] + [([0], [3])] * (CAP - 2)
    monkeypatch.setattr(limit_laws, "_draw_categories", draw_categories)
    _dying_walks(monkeypatch)
    with pytest.raises(RejectionCapExceeded, match=f"cluster size draw.*{CAP} attempts"):
        sampler.sample_size(rng, [0])


def test_brood_vector_rejection_gives_up(small_cap, monkeypatch, rng):
    sampler = ClusterSampler(EnvStream(BINARY, rng), LimitConfig())
    calls = _dying_walks(monkeypatch)
    with pytest.raises(RejectionCapExceeded, match=f"brood-vector rejection.*{CAP} attempts"):
        sampler.sample_brood_vector(rng, [0])
    assert len(calls) == CAP
    assert all(len(rows) == 2 for rows, _ in calls)  # every binary brood has two members
    # a block of three draws accepts none in its first round, and then
    # redoes the first brood alone
    calls.clear()
    with pytest.raises(RejectionCapExceeded, match=f"brood-vector rejection.*{CAP} attempts"):
        sampler.sample_brood_vector(rng, np.zeros(3, dtype=int))
    assert [len(rows) for rows, _ in calls] == [6] + [2] * (CAP - 1)


def _run_with_cap(tmp_path, command, cap=2000, timeout=60):
    """``brwre <command> --reps 1`` on the binary config with a {Poisson(0.5)}
    environment, conditioned at n = 40, in a subprocess whose cap is ``cap``."""
    base = load_config(os.path.join(ROOT, "configs", "binary_iid.yaml"))
    cfg = dataclasses.replace(
        base,
        environment=SUBCRITICAL,
        simulation=dataclasses.replace(base.simulation, n=(40,)),
        output_dir=str(tmp_path / "out"),
    )
    assert cfg.simulation.condition_on_survival
    path = tmp_path / "subcritical.yaml"
    path.write_text(dump_config(cfg))
    code = (
        "import sys\n"
        "from brwre import errors\n"
        f"errors._REJECTION_CAP = {cap}\n"
        "from brwre.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, command, "--config", str(path), "--reps", "1"],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


@pytest.mark.parametrize("command", ["limit", "simulate"])
def test_cli_subcritical_exits_3_with_record(tmp_path, command):
    proc = _run_with_cap(tmp_path, command)
    assert proc.returncode == 3, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["error"] == "RejectionCapExceeded"
    assert "2000 attempts" in record["message"]
