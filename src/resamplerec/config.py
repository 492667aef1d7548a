"""Run configuration: one JSON document drives the whole pipeline.

Defaults are the paper-level experiment constants (k=20 folds, multipliers
1.25..10.0 step 0.25, epsilon 0.75, alpha 0.05, k'=10). Command-line flags
override file values. The document is read through `jsondoc`, the one JSON
reader, so a bad key is one ConfigError (E_CONFIG) naming its key path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .data import MixtureConfig
from .evaluation import GridDef
from .jsondoc import POSITIVE, at_least, one_of, read_array, read_json, read_object
from .learners import DEFAULT_LEARNERS, KINDS, LearnerSpec
from .recommender import DEFAULT_PRESETS, PRESETS
from .resampling import ResamplingSpec

DEFAULT_METHODS = ["ros", "rus", "smote1", "smote3", "smote5", "smote7"]

# each top-level key -> its JSON kind (a key of jsondoc.KINDS), or its kind and bound
_SCALAR_KEYS = {"seed": "an integer", "out": "a string", "k": ("an integer", at_least(2)),
                "k_prime": ("an integer", at_least(2)),
                "alpha": ("a number", ("in (0, 1)", lambda v: 0 < v < 1)),
                "epsilon": ("a number", POSITIVE), "count": ("an integer", at_least(1)),
                "csv_dir": "a string or null", "label_column": "a string",
                "use_windowed_pval_for_targets": "true or false",
                "workers": ("an integer", at_least(1))}
_TOP_KEYS = {**_SCALAR_KEYS, "learner": "a string or an object", "methods": "an array",
             "multipliers": "an object", "mixture": "an object", "approaches": "an array",
             "presets": "an object"}
_MIXTURE_RANGES = {"dim_range": "an integer", "size_range": "an integer",
                   "minor_fraction_range": "a number", "components_range": "an integer",
                   "mean_range": "a number", "cov_scale_range": "a number"}
_MIXTURE_KEYS = {**dict.fromkeys(_MIXTURE_RANGES, "an array"), "seed": "an integer"}
_MULTIPLIER_KEYS = dict.fromkeys(("min", "max", "step"), "a number")
_PRESET_KEYS = {approach: ("a string", one_of(tuple(
    name for name, preset in PRESETS.items() if preset.approach == approach)))
    for approach in ("a1", "a2")}
MAX_MULTIPLIERS = 1000  # the paper's grid has 36


class ConfigError(ValueError):
    """A config document the pipeline cannot run; reported as E_CONFIG."""

    code = "E_CONFIG"


@dataclass(frozen=True)
class MultiplierGrid:
    min: float = 1.25
    max: float = 10.0
    step: float = 0.25

    def __post_init__(self):
        where = f"got min {self.min}, max {self.max}, step {self.step}"
        if self.min < 1.0 or self.max < self.min or self.step <= 0:
            raise ConfigError("config key 'multipliers' must have 1 <= min <= max and step > 0, "
                              f"{where}")
        values = self.values()
        if len(values) > MAX_MULTIPLIERS:
            raise ConfigError(f"config key 'multipliers' must list at most {MAX_MULTIPLIERS} "
                              f"values, {where}")
        if len(set(values)) < len(values):
            raise ConfigError("config key 'multipliers' must list distinct values at 10 "
                              f"decimals, {where}")

    def values(self) -> list[float]:
        """min, min + step, ... up to max, each rounded to 10 decimals; the list
        stops at MAX_MULTIPLIERS + 1 values, past which a grid is refused."""
        top = self.max + 1e-9
        values = []
        for i in range(MAX_MULTIPLIERS + 1):
            m = round(self.min + i * self.step, 10)
            if m > top:
                break
            values.append(m)
        return values


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
    grid: GridDef = field(init=False, repr=False, compare=False)  # built from the keys above

    def __post_init__(self):
        for i, a in enumerate(self.approaches):
            if a not in ("a1", "a2"):
                raise ConfigError(f"unknown approach {a!r} in 'approaches[{i}]'")
        object.__setattr__(self, "grid", self._grid_definition())

    def _grid_definition(self) -> GridDef:
        """The grid definition, the one reader of `methods`, `multipliers` and `k`."""
        for i, method in enumerate(self.methods):
            try:
                ResamplingSpec(method)
            except ValueError:
                raise ConfigError(f"unknown resampling method {method!r} in 'methods[{i}]'")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError("config key 'methods' must name each method once")
        grid = GridDef.of(self.learner, self.methods, self.multipliers.values(), self.k, self.seed,
                          self.label_column)
        if not grid.methods:  # "none" is the baseline, which every grid scores
            raise ConfigError("config key 'methods' must name a method other than 'none'")
        return grid

    def preset_for(self, approach: str) -> str:
        name = self.presets.get(approach) or DEFAULT_PRESETS.get((approach, self.learner.kind))
        if name is None:
            raise ValueError(f"no default preset for {approach}/{self.learner.kind}")
        return name

    def out_dir(self) -> Path:
        return Path(self.out)


def _mixture_from_dict(d: dict) -> MixtureConfig:
    if "minor_cov_scale_range" in d:
        # not parsed, nor hashed into the dataset manifest, so it would be ignored
        raise ConfigError("config key 'mixture.minor_cov_scale_range' is not supported")
    read_object(d, _MIXTURE_KEYS, "config", ConfigError, prefix="mixture.")
    kwargs = {name: tuple(read_array(d, name, kind, "config", ConfigError, shape=(2,),
                                     prefix="mixture."))
              for name, kind in _MIXTURE_RANGES.items() if name in d}
    if "seed" in d:
        kwargs["seed"] = d["seed"]
    try:
        return MixtureConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"config key 'mixture' is invalid: {exc}") from None


def _learner_from_config(learner: str | dict) -> LearnerSpec:
    """The config's learner (a kind, or an object of spec fields); a field it
    does not give takes its kind's value in DEFAULT_LEARNERS."""
    if isinstance(learner, str):
        learner = {"kind": learner}
    kind = learner.get("kind")  # any JSON value: `in KINDS` hashes none, from_dict refuses it
    defaults = DEFAULT_LEARNERS[kind].to_dict() if kind in KINDS else {}
    return LearnerSpec.from_dict({**defaults, **learner}, "config", ConfigError, "learner.")


def config_from_dict(doc: dict) -> RunConfig:
    read_object(doc, _TOP_KEYS, "config", ConfigError)
    kwargs: dict = {name: doc[name] for name in _SCALAR_KEYS if name in doc}
    if "learner" in doc:
        kwargs["learner"] = _learner_from_config(doc["learner"])
    for name in ("methods", "approaches"):
        if name in doc:
            kwargs[name] = tuple(read_array(doc, name, "a string", "config", ConfigError))
    if "multipliers" in doc:
        m = read_object(doc["multipliers"], _MULTIPLIER_KEYS, "config", ConfigError,
                        required=_MULTIPLIER_KEYS, prefix="multipliers.")
        kwargs["multipliers"] = MultiplierGrid(**{name: float(m[name]) for name in m})
    if "mixture" in doc:
        kwargs["mixture"] = _mixture_from_dict(doc["mixture"])
    if "presets" in doc:  # approach -> the name of one of its presets
        kwargs["presets"] = dict(read_object(doc["presets"], _PRESET_KEYS, "config", ConfigError,
                                             prefix="presets."))
    if "seed" not in doc.get("mixture", {}):  # the generator seed follows the master seed
        kwargs["mixture"] = replace(kwargs.get("mixture", MixtureConfig()),
                                    seed=kwargs.get("seed", RunConfig.seed))
    return RunConfig(**kwargs)


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    doc = {} if path is None else read_json(path, "config", ConfigError)
    if overrides and isinstance(doc, dict):  # config_from_dict rejects any other document
        doc.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(doc)
