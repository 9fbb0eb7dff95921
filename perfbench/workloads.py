"""The four brwre benchmark workloads and the checks on their outputs.

Every workload is closed-loop with a single client: the next operation starts
when the previous one has returned and its outputs have been checked.  Inputs
come from the benchmark seed only; it is passed to the CLI as ``--seed`` and to
``replication_rng`` in the library loop.  Checks run outside the timed region.
See README.md for why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import re
import resource
import time
from contextlib import redirect_stdout

import numpy as np

from brwre import brw, cli
from brwre.config import config_hash, dump_config, load_config

MIXTURE = "configs/mixture_poisson.yaml"
BINARY = "configs/binary_iid.yaml"


def cpu_now() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclasses.dataclass
class Op:
    """One timed operation: its cost, what the checks found, what it printed.

    ``scale`` is the nominal work of the workload over the work this operation
    did; the end-to-end times are the measured times multiplied by it.
    """

    wall_s: float
    cpu_s: float
    problems: list
    info: dict = dataclasses.field(default_factory=dict)
    scale: float = 1.0
    rep_ms: list = dataclasses.field(default_factory=list)  # per-replication wall, if timed


def _outcome_digest(o) -> str:
    h = hashlib.sha256()
    for arr in (o.env_seq.law_indices, o.env_seq.pi, o.z, o.top, o.bottom,
                o.atoms.locations, o.atoms.multiplicities,
                o.diagnostics.big_jump_generations):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((o.b_n, o.w_n, o.restarts, o.diagnostics.paths_with_two_big_jumps,
                   o.diagnostics.max_leaf_jump_gen)).encode())
    return h.hexdigest()


def naive_agreement(sim: brw.SimConfig, seed: int, reps: int = 4, n: int = 7) -> list:
    """Problems found comparing ``simulate`` with ``simulate_naive`` bit for bit."""
    small = dataclasses.replace(sim, n=n, seed=seed)
    problems = []
    for r in range(reps):
        fast = brw.simulate(small, brw.replication_rng(seed, r))
        slow = brw.simulate_naive(small, brw.replication_rng(seed, r))
        if _outcome_digest(fast) != _outcome_digest(slow):
            problems.append(f"simulate and simulate_naive differ at n={n} rep={r}")
    return problems


class CliWorkload:
    """One ``brwre`` subcommand run in-process through ``brwre.cli.main``."""

    command = ""
    config = ""
    threads = 1
    replay = False  # every operation repeats the input of the first

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.use_seed(seed)
        self.reps = 0
        self.reference = None  # (seed, file digests) of the first operation
        self.rows_written = 0
        self.bytes_written = 0

    def use_seed(self, cli_seed: int) -> None:
        """The ``--seed`` of the next operations."""
        self.cli_seed = cli_seed
        self.cfg = load_config(self.config, seed=cli_seed, output_dir=self.out_dir)
        self.meta = f"# config_hash={config_hash(self.cfg)} seed={cli_seed}"

    def prepare(self) -> None:
        """Size the operation; runs once, before any timing."""

    def naive_check(self) -> list:
        return naive_agreement(self.cfg.sim_config(self.cfg.simulation.n[0]), self.seed)

    def argv(self) -> list:
        return [self.command, "--config", self.config, "--seed", str(self.cli_seed),
                "--out", self.out_dir, "--reps", str(self.reps), "--threads", str(self.threads)]

    def run(self) -> Op:
        buf = io.StringIO()
        c0, t0 = cpu_now(), time.perf_counter()
        with redirect_stdout(buf):
            rc = cli.main(self.argv())
        wall, cpu = time.perf_counter() - t0, cpu_now() - c0
        op = Op(wall, cpu, [])
        self.check(op, rc, buf.getvalue())
        return op

    # --- checks -------------------------------------------------------

    def expected_files(self) -> list:
        raise NotImplementedError

    def expected_rc(self, rc: int, printed: str, op: Op) -> bool:
        return rc == 0

    def check(self, op: Op, rc: int, printed: str) -> None:
        if not self.expected_rc(rc, printed, op):
            op.problems.append(f"exit code {rc}: {printed.strip()[-300:]}")
            return
        digests, rows, size = {}, 0, 0
        for name in self.expected_files():
            path = os.path.join(self.out_dir, name)
            if not os.path.isfile(path):
                op.problems.append(f"missing output {name}")
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            digests[name] = hashlib.sha256(data).hexdigest()
            size += len(data)
            if name.endswith(".csv"):
                first = data.split(b"\n", 1)[0].decode()
                if first != self.meta:
                    op.problems.append(f"{name} starts with {first!r}, not the meta line")
                rows += max(0, data.count(b"\n") - 2)
            elif json.loads(data).get("meta") != self.meta[2:]:
                op.problems.append(f"{name} has the wrong meta field")
        self.check_content(op)
        if self.reference is None:
            self.reference = (self.cli_seed, digests)
            self.rows_written, self.bytes_written = rows, size
        elif self.reference[0] == self.cli_seed and digests != self.reference[1]:
            changed = sorted(k for k in digests if digests[k] != self.reference[1].get(k))
            op.problems.append(f"rerun not byte-identical: {changed}")

    def check_content(self, op: Op) -> None:
        """Workload-specific checks of the written values."""

    def _csv(self, name: str) -> list:
        with open(os.path.join(self.out_dir, name)) as fh:
            lines = fh.read().splitlines()
        return [line.split(",") for line in lines[2:]]

    def _expect_rows(self, op: Op, name: str, expected: int) -> list:
        rows = self._csv(name)
        if len(rows) != expected:
            op.problems.append(f"{name} has {len(rows)} rows, expected {expected}")
        return rows

    @property
    def draws(self) -> int:
        return 0


class SimulateMixture(CliWorkload):
    """``brwre simulate`` on the mixture config, sized by rows written.

    Rows per replication are heavy-tailed, so a fixed replication count would
    make the work vary with the seed.  The count is the smallest that reaches
    ``rows_target`` rows, and each operation's time is scaled to exactly
    ``rows_target`` rows (``Op.scale``).
    """

    command = "simulate"
    config = MIXTURE
    # about 1 s per operation on a 2-core x86 VM
    rows_target = 200_000

    def prepare(self) -> None:
        # The CLI draws replication r from replication_rng(seed, r), so the
        # same draws here give the exact rows each operation must write.
        sim = self.cfg.sim_config(self.cfg.simulation.n[0])
        self.rows, self.expected_atoms = 0, 0
        while self.rows < self.rows_target:
            o = brw.simulate(sim, brw.replication_rng(self.seed, self.reps))
            self.reps += 1
            self.rows += o.atoms.n_atoms + 1
            self.expected_atoms += o.atoms.n_atoms

    def run(self) -> Op:
        op = super().run()
        op.scale = self.rows_target / self.rows
        return op

    def expected_files(self) -> list:
        n = self.cfg.simulation.n[0]
        return [f"summary_n{n}.csv", f"atoms_n{n}.csv"]

    def check_content(self, op: Op) -> None:
        n = self.cfg.simulation.n[0]
        summary = self._expect_rows(op, f"summary_n{n}.csv", self.reps)
        if [r[0] for r in summary] != [str(i) for i in range(self.reps)]:
            op.problems.append("summary rep column is not 0..reps-1")
        self._expect_rows(op, f"atoms_n{n}.csv", self.expected_atoms)


class LimitMixture(CliWorkload):
    """``brwre limit`` on the mixture config: Q draws and point-process draws.

    Operations 1 and 2 run with ``--seed`` set to the benchmark seed (2 is the
    byte-identity rerun); unless ``replay`` is set, operation j > 2 runs with a
    seed derived from it, so a run covers several chunks of ``draw_pairs``
    draws rather than one.  Point-process draw cost is heavy-tailed, and one
    chunk alone would make the work depend on the seed.
    """

    command = "limit"
    config = MIXTURE
    # about 1.5 s per operation on a 2-core x86 VM
    draw_pairs = 100
    chunk_stride = 1_000_000

    def prepare(self) -> None:
        self.reps = self.draw_pairs
        self.ops_run = 0

    def run(self) -> Op:
        if self.ops_run >= 2 and not self.replay:
            self.use_seed(self.seed * self.chunk_stride + self.ops_run - 1)
        self.ops_run += 1
        return super().run()

    @property
    def draws(self) -> int:
        return 2 * self.reps

    def expected_files(self) -> list:
        return ["q_samples.csv", "limit_cdf.csv", "limit_pp.csv", "constants.json"]

    def check_content(self, op: Op) -> None:
        q = np.array([float(r[1]) for r in self._expect_rows(op, "q_samples.csv", self.reps)])
        if q.size and not (np.all(np.isfinite(q)) and np.all(q > 0.0)):
            op.problems.append("q samples must be positive and finite")
        cdf = self._expect_rows(op, "limit_cdf.csv", len(self.cfg.comparison.grid))
        vals = np.array([float(r[1]) for r in cdf])
        if vals.size and not (np.all((vals >= 0.0) & (vals <= 1.0)) and np.all(np.diff(vals) >= 0.0)):
            op.problems.append("limit CDF must be a nondecreasing probability")
        with open(os.path.join(self.out_dir, "constants.json")) as fh:
            kinds = set(json.load(fh)["constants"])
        if kinds != {"inverse_mean", "cluster_size", "cluster_vector", "cluster_vector_leafless"}:
            op.problems.append(f"constants.json has kinds {sorted(kinds)}")


_VERDICT = re.compile(
    r"n=(\d+)\s+KS=([\d.]+).*TV=([\d.]+).*Laplace=([\d.]+).*\[(PASS|FAIL)\]"
)


class CompareBinary(CliWorkload):
    """``brwre compare`` on the binary config, replications on a worker pool.

    The config is ``configs/binary_iid.yaml`` with ``limit.n_limit_samples``
    lowered from 4000 to ``limit_samples``, written next to the outputs: at
    4000 one operation takes about 10 s, so only two would fit in a run.
    Nothing else changes.

    Exit 1 is the Monte Carlo verdict FAIL, not a failed operation: the
    verdict and the printed statistics are recorded, whatever they read.
    """

    command = "compare"
    threads = 2
    sim_reps = 100
    # about 2 s per operation on a 2-core x86 VM
    limit_samples = 400

    def __init__(self, seed: int, out_dir: str):
        base = load_config(BINARY)
        small = dataclasses.replace(
            base, limit=dataclasses.replace(base.limit, n_limit_samples=self.limit_samples))
        self.config = os.path.join(out_dir, os.path.basename(BINARY))
        with open(self.config, "w") as fh:
            fh.write(dump_config(small))
        super().__init__(seed, out_dir)

    def prepare(self) -> None:
        self.reps = self.sim_reps

    @property
    def draws(self) -> int:
        size = self.cfg.limit.n_limit_samples
        return size + min(size, 4000)

    def expected_files(self) -> list:
        n = self.cfg.simulation.n[0]
        return [f"summary_n{n}.csv", f"atoms_n{n}.csv", "compare.json"]

    def pool_speedup(self) -> tuple:
        """``run_replications`` wall at 1 worker over that at ``threads`` workers."""
        sim = self.cfg.sim_config(self.cfg.simulation.n[0])
        walls, digests = [], []
        for workers in (1, self.threads):
            t0 = time.perf_counter()
            outcomes = brw.run_replications(sim, self.reps, workers)
            walls.append(time.perf_counter() - t0)
            digests.append([_outcome_digest(o) for o in outcomes])
        problems = [] if digests[0] == digests[1] else ["outcomes depend on the worker count"]
        return walls[0] / walls[1], problems

    def expected_rc(self, rc: int, printed: str, op: Op) -> bool:
        m = _VERDICT.search(printed)
        if m:
            op.info.update(verdict=m.group(5), ks=float(m.group(2)), tv=float(m.group(3)),
                           laplace=float(m.group(4)))
        return rc in (0, 1) and m is not None and (rc == 0) == (m.group(5) == "PASS")

    def check_content(self, op: Op) -> None:
        n = self.cfg.simulation.n[0]
        self._expect_rows(op, f"summary_n{n}.csv", self.reps)
        with open(os.path.join(self.out_dir, "compare.json")) as fh:
            report = json.load(fh)["n"][str(n)]
        lap = max((r["abs_diff"] for r in report["laplace"]), default=0.0)
        printed = (op.info.get("ks"), op.info.get("tv"), op.info.get("laplace"))
        written = tuple(round(v, 4) for v in (report["ks"], report["count_tv"]["tv"], lap))
        if printed != written or (report["pass"] != (op.info.get("verdict") == "PASS")):
            op.problems.append(f"printed statistics {printed} differ from compare.json {written}")


class KernelMixtureN16:
    """A library loop of ``brw.simulate`` with criterion 4's SimConfig.

    Operation j simulates the next replications of the seed's stream (the
    first starts at replication 0) until their particles, summed over all
    generations, reach ``particle_budget``.  Replication cost is heavy-tailed,
    so an operation ends a little past the budget; its wall and CPU time are
    scaled to exactly ``particle_budget`` particles (``Op.scale``).  With
    ``replay`` set, every operation repeats the replications of the first.
    """

    config = MIXTURE
    # about 2 s per operation on a 2-core x86 VM
    particle_budget = 30_000_000
    draws = rows_written = bytes_written = 0

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        base = load_config(self.config, seed=seed).sim_config(16)
        self.sim = dataclasses.replace(base, track_argmax_jump=False)
        self.replay = False
        self.next_rep = 0
        self.first = []  # (particles, digest) of the first operation's replications
        self.rerun_checked = False

    @property
    def reps(self) -> int:
        return len(self.first)

    def prepare(self) -> None:
        """Nothing to size ahead: operations follow the replication stream."""

    def naive_check(self) -> list:
        return naive_agreement(self.sim, self.seed)

    def _simulate(self, r: int):
        return brw.simulate(self.sim, brw.replication_rng(self.seed, r))

    def run(self) -> Op:
        op = Op(0.0, 0.0, [])
        recording = not self.first
        replaying = self.replay and not recording
        if not (recording or replaying or self.rerun_checked):
            # untimed: the first operation's smallest replication must replay bit for bit
            r = min(range(len(self.first)), key=lambda i: self.first[i][0])
            if _outcome_digest(self._simulate(r)) != self.first[r][1]:
                op.problems.append(f"replication {r} differs on rerun")
            self.rerun_checked = True
        r = 0 if replaying else self.next_rep
        start, particles = r, 0
        while r - start < len(self.first) if replaying else particles < self.particle_budget:
            c0, t0 = cpu_now(), time.perf_counter()
            o = self._simulate(r)
            wall, cpu = time.perf_counter() - t0, cpu_now() - c0
            if not (o.z[-1] > 0 and o.b_n >= 1.0 and o.top[0] >= o.top[1]):
                op.problems.append(f"replication {r} is not a surviving outcome")
            size = int(o.z.sum())
            if recording:
                self.first.append((size, _outcome_digest(o)))
            elif replaying and _outcome_digest(o) != self.first[r][1]:
                op.problems.append(f"replication {r} differs on replay")
            particles += size
            op.wall_s += wall
            op.cpu_s += cpu
            op.rep_ms.append(1e3 * wall)
            r += 1
        if not replaying:
            self.next_rep = r
        op.scale = self.particle_budget / particles
        op.info.update(reps=r - start, particles=particles)
        return op


WORKLOADS = {
    "simulate-mixture": SimulateMixture,
    "kernel-mixture-n16": KernelMixtureN16,
    "limit-mixture": LimitMixture,
    "compare-binary": CompareBinary,
}
