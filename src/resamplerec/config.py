"""Run configuration: one JSON document drives the whole pipeline.

Defaults are the paper-level experiment constants (k=20 folds, multipliers
1.25..10.0 step 0.25, epsilon 0.75, alpha 0.05, k'=10). Command-line flags
override file values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .data import MixtureConfig
from .learners import DEFAULT_LEARNERS, LearnerSpec
from .recommender import DEFAULT_PRESETS, PRESETS

DEFAULT_METHODS = ["ros", "rus", "smote1", "smote3", "smote5", "smote7"]

_SCALAR_KEYS = ("seed", "out", "k", "k_prime", "alpha", "epsilon", "count", "csv_dir",
                "label_column", "use_windowed_pval_for_targets", "workers")
_TOP_KEYS = _SCALAR_KEYS + ("learner", "methods", "multipliers", "mixture", "approaches",
                            "presets")
_MIXTURE_RANGES = ("dim_range", "size_range", "minor_fraction_range", "components_range",
                   "mean_range", "cov_scale_range")
_MULTIPLIER_KEYS = ("min", "max", "step")


class ConfigError(ValueError):
    """A config document the pipeline cannot run; reported as E_CONFIG."""

    code = "E_CONFIG"


def _check_keys(d: dict, prefix: str, allowed, required=()) -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
    for key in required:
        if key not in d:
            raise ConfigError(f"missing config key '{prefix}{key}'")


@dataclass(frozen=True)
class MultiplierGrid:
    min: float = 1.25
    max: float = 10.0
    step: float = 0.25

    def __post_init__(self):
        if self.min < 1.0 or self.max < self.min or self.step <= 0:
            raise ValueError("invalid multiplier grid")

    def values(self) -> list[float]:
        out = []
        i = 0
        while True:
            m = round(self.min + i * self.step, 10)
            if m > self.max + 1e-9:
                break
            out.append(m)
            i += 1
        return out


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out: str = "out"
    learner: LearnerSpec = field(default_factory=lambda: DEFAULT_LEARNERS["decision_tree"])
    methods: tuple[str, ...] = tuple(DEFAULT_METHODS)
    multipliers: MultiplierGrid = field(default_factory=MultiplierGrid)
    k: int = 20
    k_prime: int = 10
    alpha: float = 0.05
    epsilon: float = 0.75
    count: int = 60
    mixture: MixtureConfig = field(default_factory=MixtureConfig)
    csv_dir: str | None = None
    label_column: str = "label"
    approaches: tuple[str, ...] = ("a1", "a2")
    presets: dict = field(default_factory=dict)  # approach -> preset name
    use_windowed_pval_for_targets: bool = False
    workers: int = 1

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not self.methods:
            raise ValueError("method list must be non-empty")
        for a in self.approaches:
            if a not in ("a1", "a2"):
                raise ValueError(f"unknown approach {a!r}")

    def preset_for(self, approach: str) -> str:
        if approach in self.presets:
            name = self.presets[approach]
        else:
            name = DEFAULT_PRESETS.get((approach, self.learner.kind))
            if name is None:
                raise ValueError(f"no default preset for {approach}/{self.learner.kind}")
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}")
        return name

    def out_dir(self) -> Path:
        return Path(self.out)

    def multiplier_values(self) -> list[float]:
        return self.multipliers.values()


def _mixture_from_dict(d: dict) -> MixtureConfig:
    if "minor_cov_scale_range" in d:
        # not parsed, nor hashed into the dataset manifest, so it would be ignored
        raise ConfigError("config key 'mixture.minor_cov_scale_range' is not supported")
    _check_keys(d, "mixture.", _MIXTURE_RANGES + ("seed",))
    kwargs = {}
    for name in _MIXTURE_RANGES:
        if name in d:
            lo, hi = d[name]
            kwargs[name] = (lo, hi)
    if "seed" in d:
        kwargs["seed"] = int(d["seed"])
    return MixtureConfig(**kwargs)


def _learner_from_config(learner) -> LearnerSpec:
    if isinstance(learner, str):
        learner = {"kind": learner}
    _check_keys(learner, "learner.", [f.name for f in fields(LearnerSpec)], required=("kind",))
    if learner["kind"] not in DEFAULT_LEARNERS:
        raise ConfigError(f"unknown learner kind {learner['kind']!r} in 'learner.kind'")
    base = DEFAULT_LEARNERS[learner["kind"]].to_dict()
    base.update(learner)
    return LearnerSpec.from_dict(base)


def config_from_dict(doc: dict) -> RunConfig:
    _check_keys(doc, "", _TOP_KEYS)
    kwargs: dict = {}
    for name in _SCALAR_KEYS:
        if name in doc:
            kwargs[name] = doc[name]
    if "learner" in doc:
        kwargs["learner"] = _learner_from_config(doc["learner"])
    if "methods" in doc:
        kwargs["methods"] = tuple(doc["methods"])
    if "multipliers" in doc:
        m = doc["multipliers"]
        _check_keys(m, "multipliers.", _MULTIPLIER_KEYS, required=_MULTIPLIER_KEYS)
        kwargs["multipliers"] = MultiplierGrid(min=float(m["min"]), max=float(m["max"]),
                                               step=float(m["step"]))
    if "mixture" in doc:
        kwargs["mixture"] = _mixture_from_dict(doc["mixture"])
    if "approaches" in doc:
        kwargs["approaches"] = tuple(doc["approaches"])
    if "presets" in doc:
        kwargs["presets"] = dict(doc["presets"])
    cfg = RunConfig(**kwargs)
    # the generator seed follows the master seed unless set explicitly
    if "mixture" not in doc or "seed" not in doc.get("mixture", {}):
        cfg = replace(cfg, mixture=replace(cfg.mixture, seed=cfg.seed))
    return cfg


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    doc: dict = {}
    if path is not None:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if overrides:
        doc.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(doc)
