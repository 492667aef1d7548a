"""Run configuration: one JSON document drives the whole pipeline.

Defaults are the paper-level experiment constants (k=20 folds, multipliers
1.25..10.0 step 0.25, epsilon 0.75, alpha 0.05, k'=10). Command-line flags
override file values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .data import MixtureConfig
from .learners import DEFAULT_LEARNERS, SPEC_FIELD_TYPES, LearnerSpec
from .recommender import DEFAULT_PRESETS, PRESETS
from .resampling import ResamplingSpec

DEFAULT_METHODS = ["ros", "rus", "smote1", "smote3", "smote5", "smote7"]

_INTEGER = "an integer"
_NUMBER = "a number"
_STRING = "a string"
_KINDS = {
    _INTEGER: lambda v: isinstance(v, int) and not isinstance(v, bool),
    _NUMBER: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    _STRING: lambda v: isinstance(v, str),
    "true or false": lambda v: isinstance(v, bool),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "an integer or null": lambda v: v is None or _KINDS[_INTEGER](v),
    "an object": lambda v: isinstance(v, dict),
    "a string or an object": lambda v: isinstance(v, (str, dict)),
    "a list": lambda v: isinstance(v, list),
}

_SCALAR_KEYS = {"seed": _INTEGER, "out": _STRING, "k": _INTEGER, "k_prime": _INTEGER,
                "alpha": _NUMBER, "epsilon": _NUMBER, "count": _INTEGER,
                "csv_dir": "a string or null", "label_column": _STRING,
                "use_windowed_pval_for_targets": "true or false", "workers": _INTEGER}
_TOP_KEYS = tuple(_SCALAR_KEYS) + ("learner", "methods", "multipliers", "mixture",
                                   "approaches", "presets")
_MIXTURE_RANGES = {"dim_range": _INTEGER, "size_range": _INTEGER,
                   "minor_fraction_range": _NUMBER, "components_range": _INTEGER,
                   "mean_range": _NUMBER, "cov_scale_range": _NUMBER}
_MULTIPLIER_KEYS = ("min", "max", "step")
_MINIMUMS = {"count": 1, "k": 2, "k_prime": 2, "workers": 1}
_LEARNER_KEYS = {name: what for name, (what, _) in SPEC_FIELD_TYPES.items()}


class ConfigError(ValueError):
    """A config document the pipeline cannot run; reported as E_CONFIG."""

    code = "E_CONFIG"


def _typed(value, kind: str, path: str):
    """Return value when it is of `kind` (a key of _KINDS); else raise ConfigError."""
    if not _KINDS[kind](value):
        raise ConfigError(f"config key '{path}' must be {kind}, got {json.dumps(value)}")
    return value


def _list_of(value, kind: str, path: str) -> list:
    _typed(value, "a list", path)
    for i, item in enumerate(value):
        _typed(item, kind, f"{path}[{i}]")
    return value


def _check_keys(d: dict, prefix: str, allowed, required=()) -> None:
    _typed(d, "an object", prefix.rstrip("."))
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
            raise ConfigError("config key 'multipliers' must have 1 <= min <= max and step > 0, "
                              f"got min {self.min}, max {self.max}, step {self.step}")

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
        for key, low in _MINIMUMS.items():
            if getattr(self, key) < low:
                raise ConfigError(f"config key '{key}' must be >= {low}, "
                                  f"got {json.dumps(getattr(self, key))}")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"config key 'alpha' must be in (0, 1), got {json.dumps(self.alpha)}")
        if self.epsilon <= 0:
            raise ConfigError(f"config key 'epsilon' must be positive, "
                              f"got {json.dumps(self.epsilon)}")
        if not self.methods:
            raise ConfigError("config key 'methods' must be non-empty")
        for i, a in enumerate(self.approaches):
            if a not in ("a1", "a2"):
                raise ConfigError(f"unknown approach {a!r} in 'approaches[{i}]'")

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
    _check_keys(d, "mixture.", tuple(_MIXTURE_RANGES) + ("seed",))
    kwargs = {}
    for name, kind in _MIXTURE_RANGES.items():
        if name in d:
            bounds = _list_of(d[name], kind, f"mixture.{name}")
            if len(bounds) != 2:
                raise ConfigError(f"config key 'mixture.{name}' must be [low, high], "
                                  f"got {json.dumps(bounds)}")
            kwargs[name] = tuple(bounds)
    if "seed" in d:
        kwargs["seed"] = _typed(d["seed"], _INTEGER, "mixture.seed")
    try:
        return MixtureConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"config key 'mixture' is invalid: {exc}") from None


def _learner_from_config(learner) -> LearnerSpec:
    if isinstance(learner, str):
        learner = {"kind": learner}
    _typed(learner, "a string or an object", "learner")
    _check_keys(learner, "learner.", _LEARNER_KEYS, required=("kind",))
    for key, value in learner.items():
        _typed(value, _LEARNER_KEYS[key], f"learner.{key}")
    if learner["kind"] not in DEFAULT_LEARNERS:
        raise ConfigError(f"unknown learner kind {learner['kind']!r} in 'learner.kind'")
    base = DEFAULT_LEARNERS[learner["kind"]].to_dict()
    base.update(learner)
    return LearnerSpec.from_dict(base)


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("a config document must be a JSON object")
    _check_keys(doc, "", _TOP_KEYS)
    kwargs: dict = {}
    for name, kind in _SCALAR_KEYS.items():
        if name in doc:
            kwargs[name] = _typed(doc[name], kind, name)
    if "learner" in doc:
        kwargs["learner"] = _learner_from_config(doc["learner"])
    if "methods" in doc:
        for i, method in enumerate(_list_of(doc["methods"], _STRING, "methods")):
            try:
                ResamplingSpec(method)
            except ValueError:
                raise ConfigError(f"unknown resampling method {method!r} in 'methods[{i}]'")
        kwargs["methods"] = tuple(doc["methods"])
    if "multipliers" in doc:
        m = doc["multipliers"]
        _check_keys(m, "multipliers.", _MULTIPLIER_KEYS, required=_MULTIPLIER_KEYS)
        kwargs["multipliers"] = MultiplierGrid(
            **{key: float(_typed(m[key], _NUMBER, f"multipliers.{key}"))
               for key in _MULTIPLIER_KEYS})
    if "mixture" in doc:
        kwargs["mixture"] = _mixture_from_dict(doc["mixture"])
    if "approaches" in doc:
        kwargs["approaches"] = tuple(_list_of(doc["approaches"], _STRING, "approaches"))
    if "presets" in doc:
        _typed(doc["presets"], "an object", "presets")
        for approach, name in doc["presets"].items():
            _typed(name, _STRING, f"presets.{approach}")
        kwargs["presets"] = dict(doc["presets"])
    cfg = RunConfig(**kwargs)
    # the generator seed follows the master seed unless set explicitly
    if "mixture" not in doc or "seed" not in doc.get("mixture", {}):
        cfg = replace(cfg, mixture=replace(cfg.mixture, seed=cfg.seed))
    return cfg


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    doc: dict = {}
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if overrides and isinstance(doc, dict):  # config_from_dict rejects any other document
        doc.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(doc)
