"""Digest every CLI output of the shipped configs, as a refactor oracle.

Runs ``check``, ``simulate``, ``limit``, ``compare`` and ``diagnostics`` on
each ``configs/*.yaml`` of this checkout and on the derived scenarios of
:func:`derived_configs`, in process through ``brwre.cli.main``, each command
into its own directory ``<config>/<command>`` under a temporary working
directory.  Prints a header of ``# `` lines naming the numpy version, the
SIMD targets numpy dispatches to, the Python version and the machine type,
then one ``sha256  path`` line per output file and per command's stdout
(path ``<config>/<command>/stdout``), and one ``exit N  <config>/<command>``
line per command.  Paths are relative to the
temporary directory, so the listings of two checkouts can be compared with
``diff``.

Data files are byte-identical across reruns and ``--threads`` values, so any
line that differs is a change in output.  ``tests/golden/output_digests.txt``
is the listing at ``--reps 20 --threads 1``, and ``tests/test_tools.py``
holds every checkout to it; a change that shifts a random stream on purpose
regenerates it, and the file's diff is the list of moved outputs:

    python3 tools/output_digests.py --reps 20 --threads 1 > tests/golden/output_digests.txt

Every data file starts with the config hash: the first line of a CSV file,
the ``meta`` field of a JSON file.  A change that moves the hash (a change to
the config schema or to ``config_to_dict``) therefore moves every data
digest.  ``--past-meta`` digests each CSV file past its first line and each
JSON file without its ``meta`` field, so the rest of the output can still be
compared in one run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np
import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from brwre import Binomial, DisplacementModel, EnvironmentModel, Finite, Geometric, Poisson  # noqa: E402
from brwre.cli import main as brwre_main  # noqa: E402
from brwre.config import config_to_dict, load_config  # noqa: E402

COMMANDS = ("check", "simulate", "limit", "compare", "diagnostics")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def derived_configs(directory: str) -> list:
    """Write the scenarios the shipped configs leave out to ``directory``.

    Both shipped configs are iid with no finite-support environment and no
    law of mean <= 1, and both condition on survival, so the binary config is
    rewritten (through ``config_to_dict``) with fully dependent
    displacements, with a two-coordinate diagonal angular model, with the
    three cyclic shifts of (0.6, -0.8, 0) as angular atoms under
    {Binomial(3, 0.8), finite} (off the diagonal, so an exceedance-count mass
    sums the terms of several atoms), with a {finite, binomial, geometric}
    environment, and with {Poisson(0.9) w.p. 0.2, Poisson(4) w.p. 0.8} at
    n = 8, whose series stop on the annealed tail rule; the mixture config is
    rewritten without survival conditioning, so that extinct replications
    write NaN summary fields and no atom rows; and the binary config is run
    at n = 18 with iid, fully dependent and diagonal angular displacements,
    all with p = 1/2: its 2^18 leaves span two chunks of the streaming
    simulator (``brw.LEAF_CHUNK``), each of which splits its uniforms into
    signs and magnitudes (angular: atoms and radii); and the binary config is
    rewritten with one-sided negative iid displacements (p = 0), whose steps
    and limit points take the magnitude's uniform without a sign category;
    and with iid displacements of tail index 0.25, whose norming constants
    and maxima pass 1e17 and so reach the writer's ``%.17g`` fallback.
    Returns the YAML paths.
    """
    base = load_config(os.path.join(ROOT, "configs", "binary_iid.yaml"))
    poisson_mix = load_config(os.path.join(ROOT, "configs", "mixture_poisson.yaml"))
    mixture = EnvironmentModel((Finite((0.2, 0.3, 0.5)), Binomial(3, 0.8), Geometric(0.6)), (0.3, 0.4, 0.3))
    annealed = EnvironmentModel((Poisson(0.9), Poisson(4.0)), (0.2, 0.8))
    cyclic = DisplacementModel.discrete_angular(2.0, [[0.6, -0.8, 0.0], [0.0, 0.6, -0.8], [-0.8, 0.0, 0.6]], [1.0] * 3)
    n18 = dataclasses.replace(base, simulation=dataclasses.replace(base.simulation, n=(18,)))
    scenarios = {
        "binary_full_dep": dataclasses.replace(base, displacement=DisplacementModel.full_dep(2.0, 0.5)),
        "binary_negative": dataclasses.replace(base, displacement=DisplacementModel.iid(2.0, 0.0)),
        "binary_heavy": dataclasses.replace(base, displacement=DisplacementModel.iid(0.25, 0.5)),
        "binary_angular": dataclasses.replace(base, displacement=DisplacementModel.diagonal_angular(2.0, 2, 0.5)),
        "binary_angular_cyclic": dataclasses.replace(
            base,
            displacement=cyclic,
            environment=EnvironmentModel((Binomial(3, 0.8), Finite((0.2, 0.3, 0.5))), (0.5, 0.5)),
        ),
        "binary_finite_mixture": dataclasses.replace(base, environment=mixture),
        "binary_annealed": dataclasses.replace(
            base, environment=annealed, simulation=dataclasses.replace(base.simulation, n=(8,))
        ),
        "binary_n18_iid": n18,
        "binary_n18_full_dep": dataclasses.replace(n18, displacement=DisplacementModel.full_dep(2.0, 0.5)),
        "binary_n18_angular": dataclasses.replace(n18, displacement=DisplacementModel.diagonal_angular(2.0, 2, 0.5)),
        "mixture_unconditioned": dataclasses.replace(
            poisson_mix, simulation=dataclasses.replace(poisson_mix.simulation, condition_on_survival=False)
        ),
    }
    paths = []
    for name, cfg in scenarios.items():
        paths.append(os.path.join(directory, f"{name}.yaml"))
        # the JSON round trip makes numpy scalars plain floats, which checkouts
        # whose angular constructor kept numpy scalars need before YAML
        doc = json.loads(json.dumps(config_to_dict(cfg)))
        with open(paths[-1], "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)
    return paths


def file_digest(path: str, past_meta: bool) -> str:
    """sha256 of the file at ``path``; with ``past_meta``, of all but its config hash."""
    with open(path, "rb") as fh:
        data = fh.read()
    if past_meta and path.endswith(".csv"):
        data = data.split(b"\n", 1)[-1]
    elif past_meta and path.endswith(".json"):
        doc = json.loads(data)
        doc.pop("meta", None)
        # the CLI writes with indent=2, so this re-dump is the file without its meta line
        data = json.dumps(doc, indent=2).encode()
    return sha256(data)


def digest_config(config: str, reps: int, threads: int, past_meta: bool = False) -> list:
    """Digest lines of every command on ``config``, writing below the working directory."""
    name = os.path.splitext(os.path.basename(config))[0]
    lines = []
    for command in COMMANDS:
        # relative, because the output directory is part of the config hash
        out = f"{name}/{command}"
        argv = [command, "--config", config, "--out", out, "--reps", str(reps), "--threads", str(threads)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = brwre_main(argv)
        lines.append(f"exit {code}  {name}/{command}")
        lines.append(f"{sha256(stdout.getvalue().encode())}  {name}/{command}/stdout")
        # a command that stopped before writing (exit 2 or 3) leaves no directory
        for fname in sorted(os.listdir(out)) if os.path.isdir(out) else []:
            lines.append(f"{file_digest(os.path.join(out, fname), past_meta)}  {name}/{command}/{fname}")
    return lines


def simd_targets() -> str:
    """The SIMD targets numpy dispatches to on this host, as ``np.show_runtime`` lists them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return " ".join(f for f in __cpu_dispatch__ if __cpu_features__[f])


def header() -> list:
    """The ``# `` lines that head a listing.  Its first two decide whether two
    listings can agree: numpy may change a Generator stream between versions
    (NEP 19), and its SIMD kernels of exp, log and power may round the last
    bit differently from the scalar ones another host falls back to."""
    return [
        f"# numpy {np.__version__}",
        f"# simd {simd_targets()}",
        f"# python {platform.python_version()}",
        f"# machine {platform.machine()}",
    ]


def listing(reps: int, threads: int, past_meta: bool = False) -> list:
    """Digest lines of every shipped and derived config, writing below the working directory."""
    configs = sorted(
        os.path.join(ROOT, "configs", f) for f in os.listdir(os.path.join(ROOT, "configs")) if f.endswith(".yaml")
    )
    configs += derived_configs(os.getcwd())
    return [line for config in configs for line in digest_config(config, reps, threads, past_meta)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=20, help="--reps of every command: replications, or limit draws for limit")
    parser.add_argument("--threads", type=int, default=1, help="worker processes for replications")
    parser.add_argument(
        "--past-meta", action="store_true", help="digest CSV files past their first line and JSON files without 'meta'"
    )
    args = parser.parse_args(argv)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            print("\n".join(header() + listing(args.reps, args.threads, args.past_meta)))
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
