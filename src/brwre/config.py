"""Experiment configuration: YAML schema, validation, hashing."""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Optional

import yaml

from .brw import DEFAULT_POPULATION_CAP, SimConfig
from .displacement import DisplacementModel
from .environment import EnvironmentModel
from .errors import ConfigError
from .limit_laws import LimitConfig
from .offspring import FAMILIES, OffspringLaw

# libyaml's safe loader where PyYAML was built with it (about 7 times faster
# on the shipped configs), else the pure-Python one: both build the same
# documents from the same safe tags.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _integral(value, what: str) -> int:
    """``value`` as an int; integral floats such as 2.0 pass, fractions and booleans do not."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _known(doc, allowed, what: str) -> dict:
    """``doc`` itself, once it is a mapping whose keys all lie in ``allowed``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a mapping, got {doc!r}")
    unknown = sorted(map(str, set(doc) - set(allowed)))
    if unknown:
        raise ConfigError(f"unknown {what} keys {unknown}; known keys are {sorted(allowed)}")
    return doc


def _real(value, what: str) -> float:
    """``value`` as a float; numbers pass, booleans and strings do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _reals(value, what: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list of numbers, got {value!r}")
    return tuple(_real(v, what) for v in value)


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def _boolean(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


# Field type (as annotated) -> reader of its config value.
_READERS = {"int": _integral, "float": _real, "tuple": _reals, "bool": _boolean}


def _fields_doc(obj) -> dict:
    """A dataclass's fields as a config mapping, tuples as lists."""
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(obj).items()}


def law_to_dict(law: OffspringLaw) -> dict:
    for family, cls in FAMILIES.items():
        if isinstance(law, cls):
            return {"family": family, **_fields_doc(law)}
    raise ConfigError(f"unknown offspring law {law!r}")


def law_from_dict(doc: dict) -> OffspringLaw:
    try:
        family = doc["family"]
        cls = FAMILIES.get(family)
        if cls is None:
            raise ConfigError(f"unknown offspring family {family!r}")
        _known(doc, ["family"] + [f.name for f in fields(cls)], f"{family} law")
        values = {f.name: _READERS[f.type](doc[f.name], f"{family}.{f.name}") for f in fields(cls)}
        return cls(**values)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid offspring law {doc!r}: {exc}") from exc


def _settings(cls, doc, what: str):
    """A settings dataclass from its config block: known keys only, each value read by its field's type."""
    types = {f.name: f.type for f in fields(cls)}
    _known(doc, types, what)
    return cls(**{k: _READERS[types[k]](v, f"{what}.{k}") for k, v in doc.items()})


@dataclass(frozen=True)
class SimSettings:
    n: tuple
    replications: int = 1000
    retain_delta: float = 0.05
    top_k: int = 2
    population_cap: int = DEFAULT_POPULATION_CAP
    jump_eta: float = 0.1
    condition_on_survival: bool = True
    early_rho: int = 10

    def __post_init__(self):
        n = tuple(_integral(v, "simulation.n") for v in self.n)
        if len(n) == 0 or min(n) < 1:
            raise ConfigError("simulation.n must be a nonempty list of positive integers")
        if self.replications < 1:
            raise ConfigError("need at least one replication")
        object.__setattr__(self, "n", n)


@dataclass(frozen=True)
class ComparisonSettings:
    grid: tuple = (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
    ks_tolerance: float = 0.05
    count_tv_tolerance: float = 0.05
    laplace_tolerance: float = 0.05
    count_x: float = 1.0

    def __post_init__(self):
        if len(self.grid) == 0 or any(x <= 0.0 for x in self.grid):
            raise ConfigError("comparison.grid must be nonempty and positive")
        object.__setattr__(self, "grid", tuple(float(x) for x in self.grid))


@dataclass(frozen=True)
class ExperimentConfig:
    environment: EnvironmentModel
    displacement: DisplacementModel
    simulation: SimSettings
    limit: LimitConfig
    comparison: ComparisonSettings
    seed: int = 0
    output_dir: str = "out"

    def sim_config(self, n: int) -> SimConfig:
        return SimConfig(
            n=n,
            env=self.environment,
            disp=self.displacement,
            retain_delta=self.simulation.retain_delta,
            top_k=self.simulation.top_k,
            population_cap=self.simulation.population_cap,
            condition_on_survival=self.simulation.condition_on_survival,
            jump_eta=self.simulation.jump_eta,
            seed=self.seed,
            track_argmax_jump=False,  # no CLI output reads max_leaf_jump_gen
        )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    disp = {"mode": cfg.displacement.mode, "alpha": cfg.displacement.alpha, "p": cfg.displacement.p}
    if cfg.displacement.mode == "discrete_angular":
        disp["atoms"] = [list(a) for a in cfg.displacement.atoms]
        disp["weights"] = list(cfg.displacement.weights)
    return {
        "seed": cfg.seed,
        "output_dir": cfg.output_dir,
        "environment": {
            "support": [law_to_dict(law) for law in cfg.environment.support],
            "weights": list(cfg.environment.weights),
        },
        "displacement": disp,
        "simulation": _fields_doc(cfg.simulation),
        "limit": asdict(cfg.limit),
        "comparison": _fields_doc(cfg.comparison),
    }


def config_from_dict(doc: dict) -> ExperimentConfig:
    try:
        _known(doc, [f.name for f in fields(ExperimentConfig)], "top-level")
        env_doc = _known(doc["environment"], ("support", "weights"), "environment")
        env = EnvironmentModel(
            tuple(law_from_dict(d) for d in env_doc["support"]),
            _reals(env_doc["weights"], "environment.weights"),
        )
        disp_doc = _known(doc["displacement"], ("mode", "alpha", "p", "atoms", "weights"), "displacement")
        mode = disp_doc.get("mode", "iid")
        angular = mode == "discrete_angular"
        if not angular and ("atoms" in disp_doc or "weights" in disp_doc):
            raise ConfigError(f"displacement mode {mode!r} takes no atoms or weights")
        disp = DisplacementModel(
            alpha=_real(disp_doc["alpha"], "displacement.alpha"),
            p=_real(disp_doc["p"], "displacement.p"),
            mode=mode,
            atoms=tuple(_reals(row, "displacement.atoms") for row in disp_doc["atoms"]) if angular else (),
            weights=_reals(disp_doc["weights"], "displacement.weights") if angular else (),
        )
        cfg = ExperimentConfig(
            environment=env,
            displacement=disp,
            simulation=_settings(SimSettings, doc["simulation"], "simulation"),
            limit=_settings(LimitConfig, doc.get("limit", {}), "limit"),
            comparison=_settings(ComparisonSettings, doc.get("comparison", {}), "comparison"),
            seed=_integral(doc.get("seed", 0), "seed"),
            output_dir=_string(doc.get("output_dir", "out"), "output_dir"),
        )
        if cfg.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
        # the simulator's own rules, so that every accepted config also simulates
        for n in cfg.simulation.n:
            cfg.sim_config(n)
        return cfg
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def load_config(path: str, seed: Optional[int] = None, output_dir: Optional[str] = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a mapping")
    if seed is not None:
        doc["seed"] = seed
    if output_dir is not None:
        doc["output_dir"] = output_dir
    return config_from_dict(doc)


def dump_config(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=False)


def config_hash(cfg: ExperimentConfig) -> str:
    """Short stable digest of the full configuration."""
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
