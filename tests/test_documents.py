"""Every JSON document the program reads back goes through one reader,
`resamplerec.jsondoc`, and a broken document ends the command that reads
it in one `error` line that names the document and the key path.

The documents are the run config, a trained recommender file (approach 1
and 2, and the model entries inside it), `datasets/manifest.json`, and a
grid's `.meta.json` and `.cache.json`. For each, a hypothesis property
deletes a required key, or replaces a value with a value of a JSON type
that the key does not take. The command must fail with exactly one line:
no traceback, and no value that is silently truncated (4.7 or 4.0 for an
integer).

The documents a grid's definition is written into (the grid marker's hash,
a grid's `.meta.json`, `meta.meta.json`) keep the bytes they had when each
was written out by hand, and one function builds that definition.
"""

import ast
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from resamplerec import pipeline
from resamplerec.cli import main
from resamplerec.config import DEFAULT_METHODS, config_from_dict
from resamplerec.evaluation import QualityGrid, load_grid, save_grid
from resamplerec.learners import DEFAULT_LEARNERS

ROOT = Path(__file__).resolve().parents[1]

# a strategy for each JSON type; 4.0 and 1e300 stand in for integers
JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-3, 3),
    "float": st.sampled_from([0.5, 4.0, -1.5, 1e300]),
    "string": st.text(max_size=3),
    "array": st.lists(st.integers(0, 3), max_size=2),
    "object": st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
}
NULL, BOOL, INT, STRING = {"null"}, {"bool"}, {"int"}, {"string"}
NUMBER, ARRAY, OBJECT = {"int", "float"}, {"array"}, {"object"}
SPEC = {"kind": STRING, "max_depth": INT | NULL, "min_leaf": INT, "k": INT,
        "l1_strength": NUMBER, "max_iter": INT, "tol": NUMBER, "n_estimators": INT,
        "learning_rate": NUMBER}


class Rule(NamedTuple):
    """The JSON types a path takes, whether its key is required, and the
    texts that the error line must contain when it is broken."""

    types: set
    required: bool
    names: tuple


def render(path: tuple) -> str:
    """A key path as the error lines write it: `a.b[0].c`."""
    text = ""
    for part in path:
        text += f"[{part}]" if isinstance(part, int) else f".{part}" if text else part
    return text


def all_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for name, item in value.items():
            yield from all_paths(item, path + (name,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from all_paths(item, path + (i,))


def rules_of(doc, classify) -> list[tuple[tuple, Rule]]:
    return [(path, rule) for path in all_paths(doc) if (rule := classify(path))]


@st.composite
def broken_documents(draw, doc, rules):
    """(a copy of `doc` with one required key deleted or one value of a
    wrong JSON type, the texts its error line must contain)."""
    path, rule = draw(st.sampled_from(rules))
    actions = sorted(set(JSON_VALUES) - rule.types) + (["delete"] if rule.required else [])
    action = draw(st.sampled_from(actions))
    if not path:
        return draw(JSON_VALUES[action]), rule.names
    copy = json.loads(json.dumps(doc))
    parent = copy
    for part in path[:-1]:
        parent = parent[part]
    if action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES[action])
    return copy, rule.names


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def assert_one_error_line(argv: list[str], code: str, names=()) -> str:
    status, out, err = run(argv)
    assert status == 1 and out == "", (out, err)
    assert err.startswith(f"error {code}: ") and err.count("\n") == 1, err
    for name in names:
        assert name in err, (name, err)
    return err


def assert_refused(path: Path, text: str, argv: list[str], code: str, names) -> None:
    """Run `argv` with `text` in the file at `path`, then restore the file."""
    before = path.read_bytes()
    path.write_text(text)
    try:
        assert_one_error_line(argv, code, names)
    finally:
        path.write_bytes(before)


@pytest.fixture(scope="module")
def trained(tmp_path_factory) -> Path:
    """A tiny run through `train`, both approaches; returns the config path."""
    root = tmp_path_factory.mktemp("trained")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seed": 5, "out": str(root / "out"),
        "learner": {"kind": "decision_tree", "max_depth": 3, "min_leaf": 2},
        "methods": ["ros", "rus"], "multipliers": {"min": 1.5, "max": 2.5, "step": 0.5},
        "k": 4, "k_prime": 2, "count": 6,
        "mixture": {"dim_range": [3, 4], "size_range": [60, 90],
                    "minor_fraction_range": [0.15, 0.3]},
        "presets": {"a1": "rs1-dtree", "a2": "rs2-dtree"}}))
    for command in ("gen", "grid", "meta", "train"):
        assert run([command, "--config", str(cfg_path)])[0] == 0, command
    return cfg_path


def recommend_argv(cfg_path: Path, model: Path) -> list[str]:
    data = cfg_path.parent / "out" / "datasets" / "synth-5-0.csv"
    return ["recommend", "--config", str(cfg_path), "--model", str(model), "--data", str(data)]


# -- the config ------------------------------------------------------------

FULL_CONFIG = {
    "seed": 5, "out": "out", "learner": {"kind": "decision_tree", "max_depth": 3,
                                         "min_leaf": 2, "k": 5, "l1_strength": 1.0,
                                         "max_iter": 500, "tol": 1e-6, "n_estimators": 10,
                                         "learning_rate": 1.0},
    "methods": ["ros", "rus"], "multipliers": {"min": 1.5, "max": 2.5, "step": 0.5},
    "k": 4, "k_prime": 2, "alpha": 0.05, "epsilon": 0.75, "count": 2,
    "mixture": {"dim_range": [3, 4], "size_range": [60, 90],
                "minor_fraction_range": [0.15, 0.3], "components_range": [1, 2],
                "mean_range": [-1.0, 1.0], "cov_scale_range": [1.5, 2], "seed": 5},
    "csv_dir": None, "label_column": "label", "approaches": ["a1", "a2"],
    "presets": {"a1": "rs1-dtree", "a2": "rs2-dtree"},
    "use_windowed_pval_for_targets": False, "workers": 1,
}
CONFIG_TYPES = {
    (): OBJECT, ("seed",): INT, ("out",): STRING, ("learner",): STRING | OBJECT,
    **{("learner", name): types for name, types in SPEC.items()},
    ("methods",): ARRAY, ("methods", "*"): STRING, ("multipliers",): OBJECT,
    **{("multipliers", name): NUMBER for name in ("min", "max", "step")},
    ("k",): INT, ("k_prime",): INT, ("alpha",): NUMBER, ("epsilon",): NUMBER,
    ("count",): INT, ("mixture",): OBJECT,
    **{("mixture", name): ARRAY for name in FULL_CONFIG["mixture"] if name != "seed"},
    **{("mixture", name, "*"): INT for name in ("dim_range", "size_range", "components_range")},
    **{("mixture", name, "*"): NUMBER
       for name in ("minor_fraction_range", "mean_range", "cov_scale_range")},
    ("mixture", "seed"): INT, ("csv_dir",): STRING | NULL, ("label_column",): STRING,
    ("approaches",): ARRAY, ("approaches", "*"): STRING, ("presets",): OBJECT,
    ("presets", "a1"): STRING, ("presets", "a2"): STRING,
    ("use_windowed_pval_for_targets",): BOOL, ("workers",): INT,
}
CONFIG_REQUIRED = {("learner", "kind"), ("multipliers", "min"), ("multipliers", "max"),
                   ("multipliers", "step")}


def classify_config(path: tuple) -> Rule:
    pattern = tuple("*" if isinstance(part, int) else part for part in path)
    return Rule(CONFIG_TYPES[pattern], pattern in CONFIG_REQUIRED,
                ("config", f"'{render(path)}'") if path else ("config",))


class TestConfig:
    @given(broken_documents(FULL_CONFIG, rules_of(FULL_CONFIG, classify_config)))
    @settings(max_examples=60, deadline=None)
    def test_a_broken_config_is_one_error_line(self, broken):
        doc, names = broken
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "cfg.json"
            cfg_path.write_text(json.dumps(doc))
            assert_one_error_line(["gen", "--config", str(cfg_path)], "E_CONFIG", names)
            assert not (Path(tmp) / "out").exists()

    @pytest.mark.parametrize("content, reason", [
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b'{"seed": ', "Expecting value: line 1 column 10 (char 9)"),
        (None, "No such file or directory"),
    ], ids=["not-utf-8", "truncated", "missing"])
    def test_an_unreadable_config_file_is_e_config(self, tmp_path, content, reason):
        cfg_path = tmp_path / "cfg.json"
        if content is not None:
            cfg_path.write_bytes(content)
        err = assert_one_error_line(["gen", "--config", str(cfg_path)], "E_CONFIG")
        assert err.startswith(f"error E_CONFIG: cannot read config {cfg_path}: {reason}")


# -- a trained recommender file and its model entries ------------------------

TOP_TYPES = {"format": STRING, "version": INT, "approach": STRING, "preset": STRING,
             "alpha": NUMBER, "epsilon": NUMBER, "features": ARRAY, "methods": ARRAY,
             "multipliers": ARRAY, "classifier_spec": OBJECT, "trained_on": ARRAY,
             "models": OBJECT}
NODE_TYPES = {"n": INT, "value": NUMBER, "feature": INT, "threshold": NUMBER,
              "left": OBJECT, "right": OBJECT}


def classify_entry(path: tuple, where: str) -> Rule | None:
    """The rule of a path inside a model entry; `where` names the entry."""
    last = path[-1] if path else None
    if not path:
        return Rule(OBJECT, False, (where,))
    if path[0] == "spec" and len(path) == 2:
        return Rule(SPEC[last], last == "kind", (where, f"'{last}'"))
    if last in ("format", "version") and len(path) == 1:  # the document's identity
        return Rule(STRING if last == "format" else INT, True,
                    (where, "not a model document" if last == "format" else "model version"))
    if len(path) == 1:
        types = {"spec": OBJECT, "n_features": INT, "constant_score": NUMBER,
                 "stages": ARRAY}[last]
        return Rule(types, last != "constant_score", (where, f"'{last}'"))
    if path[0] == "stages" and len(path) == 2:
        return Rule(OBJECT, False, (where, "boost stage"))
    if path[0] == "stages" and len(path) == 3:
        return Rule(NUMBER if last == "weight" else OBJECT, True, (where, f"'{last}'"))
    if path[0] == "stages":  # a tree node key
        return Rule(NODE_TYPES[last], last != "feature", (where, "tree node", f"'{last}'"))
    return None


def classify_recommender(path: tuple, approach: str, entries: set) -> Rule | None:
    """The rule of a path of an `approach` file, inside the model entries
    whose token is in `entries` only."""
    if not path:
        return Rule(OBJECT, False, ("recommender",))
    head, rest = path[0], path[1:]
    top = f"'{render(path)}'"
    if head in ("classifier_spec", "regressor_spec") and rest:
        return Rule(SPEC[rest[0]], rest[0] == "kind", (f"recommender key '{head}'",
                                                       f"'{rest[0]}'"))
    if head == "regressor_spec":
        return Rule(OBJECT if approach == "a2" else NULL, True, ("recommender", top))
    if head in ("format", "version"):  # the file's identity: "not a recommender document"
        return Rule(TOP_TYPES[head], True, ("recommender",))
    if head != "models" or not rest:
        return Rule(TOP_TYPES[head] if not rest else STRING, not rest, ("recommender", top))
    if path[1] not in entries:
        return None
    where = f"recommender key 'models' entry {path[1]!r}"
    if approach == "a1":
        return classify_entry(path[2:], where)
    if len(path) == 2:
        return Rule(OBJECT, False, (where,))
    if len(path) == 3:
        return Rule(OBJECT, True, (where, f"'{path[2]}'"))
    return classify_entry(path[3:], where)


def model_doc(cfg_path: Path, approach: str) -> dict:
    return json.loads((cfg_path.parent / "out" / "models" / f"{approach}.json").read_text())


def _set(name, value):
    return lambda doc: doc.update({name: value})


def _model_rules(cfg_path: Path, approach: str, entries) -> tuple[dict, list]:
    doc = model_doc(cfg_path, approach)
    return doc, rules_of(doc, lambda path: classify_recommender(path, approach, set(entries)))


class TestRecommenderFile:
    @pytest.fixture(scope="class")
    def a1_top(self, trained):
        """The a1 file, broken at its top level or at a whole model entry."""
        doc = model_doc(trained, "a1")
        rules = rules_of(doc, lambda path: classify_recommender(path, "a1", set()))
        rules += [(("models", token), Rule(OBJECT, False, (f"entry {token!r}",)))
                  for token in doc["models"]]
        return doc, rules

    @pytest.fixture(scope="class")
    def a1_entries(self, trained):
        """The a1 file, broken inside one fitted and one constant model entry."""
        doc = model_doc(trained, "a1")
        fitted = min(t for t, entry in doc["models"].items() if "constant_score" not in entry)
        constant = min(t for t, entry in doc["models"].items() if "constant_score" in entry)
        return _model_rules(trained, "a1", {fitted, constant})

    @pytest.fixture(scope="class")
    def a2_file(self, trained):
        """The a2 file, broken anywhere."""
        return _model_rules(trained, "a2", model_doc(trained, "a2")["models"])

    @pytest.mark.parametrize("which", ["a1_top", "a1_entries", "a2_file"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_broken_model_file_is_one_error_line(self, trained, request, which, data):
        doc, rules = request.getfixturevalue(which)
        broken, names = data.draw(broken_documents(doc, rules))
        with tempfile.TemporaryDirectory() as tmp:
            model = Path(tmp) / "model.json"
            model.write_text(json.dumps(broken))
            assert_one_error_line(recommend_argv(trained, model), "E_FAILED", names)

    @pytest.mark.parametrize("approach, edit, problem", [
        ("a1", _set("alpha", None), "recommender key 'alpha' must be a number, not null"),
        ("a1", _set("epsilon", None), "recommender key 'epsilon' must be a number, not null"),
        ("a1", _set("multipliers", [None]),
         "recommender key 'multipliers[0]' must be a float string, not null"),
        ("a1", _set("multipliers", ["abc"]),
         'recommender key \'multipliers[0]\' must be a float string, not "abc"'),
        ("a1", _set("multipliers", ["inf"]),
         'recommender key \'multipliers[0]\' must be a float string, not "inf"'),
        ("a1", lambda doc: doc.pop("preset"), "recommender has no key 'preset'"),
        ("a1", _set("preset", 3), "recommender key 'preset' must be a string, not 3"),
        ("a1", _set("methods", [1, 2]), "recommender key 'methods[0]' must be a string, not 1"),
        ("a1", _set("version", 1.0), "unsupported recommender version 1.0"),
        ("a1", _set("regressor_spec", {"kind": "adaboost_reg"}),
         'recommender key \'regressor_spec\' must be null, not {"kind": "adaboost_reg"}'),
        ("a2", _set("regressor_spec", None),
         "recommender key 'regressor_spec' must be an object, not null"),
        ("a1", _set("alpha", 10**400),
         "recommender key 'alpha' must be a number, not " + "1" + "0" * 36 + "..."),
        ("a2", _set("epsilon", float("nan")),
         "recommender key 'epsilon' must be a number, not NaN"),
        ("a1", _set("methods", []), "recommender key 'methods' must be a non-empty array, not []"),
        ("a2", _set("multipliers", []),
         "recommender key 'multipliers' must be a non-empty array, not []"),
        ("a1", _set("methods", ["rus"]),
         "recommender key 'models' entry 'ros@1.5': method 'ros' is not in 'methods'"),
        ("a1", _set("multipliers", ["1.5", "2.0"]),
         "recommender key 'models' entry 'ros@2.5': multiplier 2.5 is not in 'multipliers'"),
        ("a2", _set("methods", ["ros"]),
         "recommender key 'models' entry 'rus': method 'rus' is not in 'methods'"),
    ], ids=["null-alpha", "null-epsilon", "null-multiplier", "text-multiplier",
            "infinite-multiplier", "no-preset", "number-preset", "number-methods",
            "float-version", "a1-regressor-spec", "a2-null-regressor-spec", "huge-alpha",
            "nan-epsilon", "no-methods", "no-multipliers", "a1-method-not-in-methods",
            "a1-multiplier-not-in-multipliers", "a2-method-not-in-methods"])
    def test_a_bad_top_level_key_is_named(self, trained, tmp_path, approach, edit, problem):
        doc = model_doc(trained, approach)
        edit(doc)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert assert_one_error_line(recommend_argv(trained, model), "E_FAILED") == \
            f"error E_FAILED: {problem}\n"

    @pytest.mark.parametrize("content, reason", [
        (b'{"format": ', "Expecting value: line 1 column 12 (char 11)"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
    ], ids=["truncated", "not-utf-8", "nested-too-deep"])
    def test_an_unreadable_model_file_names_it(self, trained, tmp_path, content, reason):
        model = tmp_path / "model.json"
        model.write_bytes(content)
        err = assert_one_error_line(recommend_argv(trained, model), "E_FAILED")
        assert err.startswith(f"error E_FAILED: cannot read recommender {model}: {reason}")


# -- the manifest and a grid's files -----------------------------------------

def classify_manifest(path: tuple, where: str) -> Rule | None:
    if not path:
        return Rule(OBJECT, False, (where,))
    if path[0] != "datasets" or path[-1] in ("rows", "dim", "n_minor"):
        return None  # written for people; no command reads it
    types = {1: ARRAY, 2: OBJECT, 3: STRING}[len(path)]
    return Rule(types, len(path) != 2, (where, f"'{render(path)}'"))


def classify_grid_meta(path: tuple, where: str) -> Rule:
    if not path:
        return Rule(OBJECT, False, (where,))
    if len(path) == 2:
        return Rule(STRING, False, (where, f"'{render(path)}'"))
    types = {"dataset_id": STRING, "learner": STRING, "k": INT, "seed": INT,
             "methods": ARRAY, "multipliers": ARRAY}[path[0]]
    return Rule(types, True, (where, f"'{path[0]}'"))


def classify_marker(path: tuple, where: str) -> Rule:
    return Rule(STRING, True, (where, "'input_hash'")) if path else Rule(OBJECT, False, (where,))


DOCUMENTS = {  # name -> (file under out/, its `where`, its classifier, its error code)
    "manifest": ("datasets/manifest.json", "manifest", classify_manifest, "E_FAILED"),
    "grid-meta": ("grids/synth-5-0.meta.json", "grid meta", classify_grid_meta,
                  "E_GRID_CORRUPT"),
    "grid-marker": ("grids/synth-5-0.cache.json", "grid marker", classify_marker,
                    "E_GRID_CORRUPT"),
}


class TestRunFiles:
    @pytest.mark.parametrize("name", list(DOCUMENTS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_broken_run_file_is_one_error_line(self, trained, name, data):
        """`meta` reads the manifest, then each grid's marker and meta file."""
        relative, noun, classify, code = DOCUMENTS[name]
        path = trained.parent / "out" / relative
        doc = json.loads(path.read_text())
        where = f"{noun} {path}"
        broken, names = data.draw(broken_documents(
            doc, rules_of(doc, lambda p: classify(p, where))))
        assert_refused(path, json.dumps(broken), ["meta", "--config", str(trained)], code,
                       names)

    @pytest.mark.parametrize("k", ["4.7", '"4"', "4.0", "1"])
    def test_a_grid_k_that_is_no_integer_from_2_is_refused(self, trained, k):
        path = trained.parent / "out" / "grids" / "synth-5-0.meta.json"
        doc = json.loads(path.read_text())
        text = json.dumps(doc).replace(f'"k": {doc["k"]}', f'"k": {k}')
        problem = f": grid meta {path} key 'k' must be an integer >= 2, not {k}\n"
        assert_refused(path, text, ["meta", "--config", str(trained)], "E_GRID_CORRUPT",
                       (problem,))

    def test_an_unreadable_grid_meta_file_names_it(self, trained):
        path = trained.parent / "out" / "grids" / "synth-5-0.meta.json"
        before = path.read_bytes()
        path.write_bytes(b"\xff\xfe")
        try:
            err = assert_one_error_line(["meta", "--config", str(trained)], "E_GRID_CORRUPT")
        finally:
            path.write_bytes(before)
        assert err.startswith(f"error E_GRID_CORRUPT: cannot read grid meta {path}: "
                              "'utf-8' codec can't decode byte 0xff")


def json_parsers(path: Path) -> list[tuple[str, str]]:
    """(file name, enclosing function) of each `json.load`/`json.loads` in a file."""
    found = []

    def visit(node, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr in ("load", "loads") \
                    and isinstance(child.value, ast.Name) and child.value.id == "json":
                found.append((path.name, function))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_json_is_parsed_in_one_function():
    """`jsondoc.read_json` is the one place under `src/` that parses JSON."""
    parsers = [use for path in sorted((ROOT / "src").rglob("*.py")) for use in json_parsers(path)]
    assert parsers == [("jsondoc.py", "read_json")]


@st.composite
def grid_configs(draw) -> dict:
    """The grid-definition keys of a config: any learner kind with fields off
    its defaults, methods in any order with or without "none", multipliers
    whose steps round at 10 decimals, `k` and `seed`."""
    learner = draw(st.fixed_dictionaries(
        {"kind": st.sampled_from(sorted(DEFAULT_LEARNERS))},
        optional={"max_depth": st.none() | st.integers(1, 12), "min_leaf": st.integers(1, 9),
                  "k": st.integers(1, 15), "l1_strength": st.floats(0.0, 10.0),
                  "max_iter": st.integers(1, 900), "tol": st.floats(1e-9, 1e-2),
                  "n_estimators": st.integers(1, 50), "learning_rate": st.floats(0.01, 2.0)}))
    methods = draw(st.lists(st.sampled_from(DEFAULT_METHODS), min_size=1, unique=True))
    if draw(st.booleans()):
        methods.insert(draw(st.integers(0, len(methods))), "none")
    low = draw(st.sampled_from([1.0, 1.1, 1.25, 4 / 3]))
    step = draw(st.sampled_from([0.1, 0.25, 0.3, 1 / 3, 0.7]))
    multipliers = {"min": low, "max": low + step * draw(st.integers(0, 30)), "step": step}
    return {"learner": learner, "methods": methods, "multipliers": multipliers,
            "k": draw(st.integers(2, 12)), "seed": draw(st.integers(0, 2**40))}


@given(grid_configs(), st.sampled_from(["synth-5-0", "d", "my data"]))
@settings(max_examples=60, deadline=None)
def test_grid_definition_documents_are_the_hand_written_ones(doc, dataset_id):
    """The marker's hash, a grid's `.meta.json` and `meta.meta.json` are byte for
    byte those written out by hand from the config, and a grid read back has
    the config's definition."""
    cfg = config_from_dict(doc)
    data = dataset_id.encode()
    assert pipeline._grid_input_hash(cfg, data) == pipeline._hash_bytes(
        data, json.dumps(oracles.grid_def_doc(cfg), sort_keys=True).encode())
    assert json.dumps(pipeline._meta_sidecar(cfg), sort_keys=True) == \
        json.dumps(oracles.meta_sidecar(cfg), sort_keys=True)
    grid = QualityGrid(dataset_id, cfg.grid)
    grid.cells = {key: np.full(cfg.grid.k, 0.5) for key in grid.cell_keys()}
    with tempfile.TemporaryDirectory() as tmp:
        save_grid(grid, Path(tmp) / "g.csv")
        assert (Path(tmp) / "g.meta.json").read_text() == \
            json.dumps(oracles.grid_meta_doc(cfg, dataset_id), sort_keys=True)
        assert load_grid(Path(tmp) / "g.csv").definition == cfg.grid


GRID_KEYS = ("methods", "multipliers", "multiplier_values", "k")


def config_grid_reads(path: Path) -> set[str]:
    """The function (`Class.function` in a class) of each read of a config's
    `methods`, `multipliers`, `multiplier_values` or `k`: an attribute of a
    name `cfg`, of a parameter annotated `RunConfig`, or of `self` in
    `RunConfig`."""
    found = set()

    def visit(node, function: str, configs: set) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, {"self"} if child.name == "RunConfig" else set())
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotated = {arg.arg for arg in child.args.args + child.args.kwonlyargs
                             if "RunConfig" in ast.unparse(arg.annotation or ast.Constant(""))}
                name = child.name if function == "<module>" else f"{function}.{child.name}"
                visit(child, name, configs | annotated | {"cfg"})
                continue
            if isinstance(child, ast.Attribute) and child.attr in GRID_KEYS \
                    and isinstance(child.value, ast.Name) and child.value.id in configs | {"cfg"}:
                found.add(f"{path.name}:{function}")
            visit(child, function, configs)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>", set())
    return found


def test_the_grid_definition_is_built_in_one_function():
    """Only the grid definition's constructor reads a config's grid keys under
    `src/`; every other use goes through the definition (`cfg.grid`)."""
    reads = set().union(*(config_grid_reads(path) for path in sorted((ROOT / "src").rglob("*.py"))))
    assert reads == {"config.py:RunConfig._grid_definition"}


def calling_functions(path: Path, names: set[str]) -> set[str]:
    """`file:function` of each function (or method) whose body calls one of
    `names`, as a bare name or as an attribute."""
    found = set()
    for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and \
                        getattr(node.func, "attr", getattr(node.func, "id", None)) in names:
                    found.add(f"{path.name}:{function.name}")
    return found


def test_a_dataset_file_is_read_and_hashed_in_one_place():
    """Under `src/`, only `load_bank` and `ingest_csv` read and parse a
    dataset file's bytes, and only `load_bank` hashes them for a grid."""
    sources = sorted((ROOT / "src").rglob("*.py"))

    def callers(*names: str) -> set[str]:
        return set().union(*(calling_functions(path, set(names)) for path in sources))

    assert callers("read_bytes", "parse_csv") == {"pipeline.py:load_bank", "data.py:ingest_csv"}
    assert callers("_grid_input_hash") == {"pipeline.py:load_bank"}
