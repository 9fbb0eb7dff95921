"""Outside-in layer tracing for brwre.

The wrappers replace module and class attributes of ``brwre`` at run time, so
every layer is timed at its boundary without editing the package.  A name is
patched in the module that *calls* it (``brw.sample_env``, not
``environment.sample_env``), because that is the binding the caller looks up.

Spans are aggregated as they close: per span name the number of calls, the
total duration and the self time (duration minus the part covered by child
spans).  Spans that run inside worker processes stay in the worker and are
lost; the parent still sees the pool span and the children's CPU time.
"""

from __future__ import annotations

import resource
import time
from collections import Counter

from brwre import brw, cli, limit_laws, measures, offspring, stats

_OFFSPRING_CLASSES = (
    offspring.Deterministic,
    offspring.Poisson,
    offspring.Geometric,
    offspring.Binomial,
    offspring.Finite,
)


def _children_cpu_ns() -> int:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int((ru.ru_utime + ru.ru_stime) * 1e9)


def outcome_counts(outcomes) -> Counter:
    """Exact counts that simulator outcomes expose."""
    c = Counter()
    for o in outcomes:
        c["reps"] += 1
        c["particles"] += int(o.z.sum())
        c["leaves"] += int(o.z[-1])
        c["restarts"] += int(o.restarts)
        c["atoms"] += int(o.atoms.n_atoms)
    return c


class Tracer:
    """Span and count recorder; ``install`` patches brwre, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans = {}  # name -> [calls, total_ns, self_ns]
        self.counts = Counter()
        self.top_ns = 0  # time covered by spans opened with no span open
        self._stack = []  # open spans: [name, child_ns]
        self._undo = []

    def _span(self, name, fn, before=None, after=None):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            state = before() if before else None
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec = spans.setdefault(name, [0, 0, 0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_ns += dt
            if after:
                after(result, parent, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name, before=None, after=None):
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._span(name, raw.__func__, before, after))
        else:
            new = self._span(name, raw, before, after)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def install(self) -> None:
        counts = self.counts

        def pool_after(outcomes, parent, cpu0):
            counts.update(outcome_counts(outcomes))
            counts["pool_children_cpu_ns"] += _children_cpu_ns() - cpu0

        def simulate_after(outcome, parent, state):
            # run_replications counts its own outcomes, also those simulated
            # in workers, so a nested simulate must not count them again
            if parent != "brw.run_replications":
                counts.update(outcome_counts([outcome]))

        def series_after(sv, parent, state):
            sv = sv[0] if isinstance(sv, tuple) else sv
            counts["series_terms"] += sv.terms_used

        p = self._patch
        for cmd in ("cmd_simulate", "cmd_limit", "cmd_compare"):
            p(cli, cmd, "cli.cmd")
        p(cli, "load_config", "config.load_config")
        p(brw, "run_replications", "brw.run_replications", _children_cpu_ns, pool_after)
        p(brw, "simulate", "brw.simulate", after=simulate_after)
        p(brw, "diagnostics_report", "brw.diagnostics_report")
        p(brw, "sample_env", "environment.sample_env")
        p(brw, "brood_flat", "displacement.brood_flat")
        for law in _OFFSPRING_CLASSES:
            p(law, "sample_many", "offspring.sample_many")
        p(limit_laws, "compose_generation", "offspring.compose_generation")
        p(offspring, "compose_generation", "offspring.compose_generation")
        p(measures.PointMeasure, "from_locations", "measures.from_locations")
        p(limit_laws, "sample_q", "limit_laws.sample_q")
        p(limit_laws, "sample_limit_point_process", "limit_laws.sample_limit_point_process")
        p(limit_laws, "sample_martingale_limit", "limit_laws.sample_martingale_limit")
        p(limit_laws.ClusterSampler, "__init__", "limit_laws.ClusterSampler.__init__")
        p(limit_laws.ClusterSampler, "sample_size", "limit_laws.ClusterSampler.sample_size")
        p(limit_laws.EnvStream, "simulate_population", "limit_laws.EnvStream.simulate_population")
        # every certified series goes through these two; ClusterSampler calls
        # _series_terms directly, bypassing cluster_norm_series
        p(limit_laws, "_series_terms", "limit_laws._series_terms", after=series_after)
        p(limit_laws, "_general_q_series", "limit_laws._general_q_series", after=series_after)
        p(limit_laws, "limit_max_cdf", "stats.limit_max_cdf")
        p(stats.Ecdf, "from_samples", "stats.Ecdf.from_samples")
        p(stats.Ecdf, "eval", "stats.Ecdf.eval")
        p(stats, "count_distribution_tv", "stats.count_distribution_tv")
        p(stats, "laplace_estimate", "stats.laplace_estimate")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0, 0])[0]

    def total_s(self, *names: str) -> float:
        return sum(self.spans.get(n, [0, 0, 0])[1] for n in names) / 1e9

    def self_s(self, *names: str) -> float:
        return sum(self.spans.get(n, [0, 0, 0])[2] for n in names) / 1e9
