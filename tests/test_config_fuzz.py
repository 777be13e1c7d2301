"""Mutated configs of every experiment against the schema oracle and the CLI.

``jsonschema`` is the oracle here only: the program checks configs with
its own interpreter of the shipped schema (``harness._schema_check``).
"""

import contextlib
import copy
import io
import json
import math
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from normlab import harness
from normlab.cli import main as cli_main
from normlab.errors import ConfigError

SCHEMA = json.loads((Path(harness.__file__).parent / "schemas" / "config.schema.json").read_text())
ORACLE = jsonschema.Draft202012Validator(SCHEMA)

# small families, n <= 3, so that every valid config runs in milliseconds
LINF = {"space": {"kind": "lp", "p": "inf", "dim": 2}, "vectors": [[1.0, 0.5], [-0.25, 1.0], [0.5, 2.0]]}
POLY = {"space": {"kind": "polytope", "functionals": [[1, 0], [0, 1], [1, 1]]}, "random_vectors": {"n": 2, "seed": 3}}
# restarts acts only in the scalar sweep; distortion and xi-sweep reject it
PROBES = {"samples": 4, "descent_steps": 2}
BASES = {
    "exact-norm": {**LINF, "points": [[1.0, 0.0, -1.0], [0.5, 2.0, 0.25]]},
    "empirical-norm": {**POLY, "N": 3, "count": 2, "enumerate": False},
    "distortion": {**LINF, "xi": 0.5, "trials": 1, "probes": PROBES, "caps": {"max_enum_n": 22}, "threads": 2},
    "xi-sweep": {**POLY, "xi_list": [0.5, 1], "trials": 1, "probes": PROBES, "sigma0": 0.5},
    "scalar-sweep": {"n": 3, "xi_list": [0.5], "trials": 1, "probes": {**PROBES, "restarts": 1}, "tau": 0.1},
    "concentration": {**LINF, "x": [1.0, -0.5, 2.0], "N_list": [2], "t": 6.0, "t_grid": [0.5], "trials": 4},
    "net-build": {**POLY, "theta": 0.75, "budget": 3},
}

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1, 3),
    st.sampled_from([-1.5, -1.0, 0.0, 0.5, 1.0, 2.0, 2.5, math.nan, math.inf, -math.inf]),
    st.sampled_from(["", "inf", "lp", "polytope", "csv", "x"]),
    st.sampled_from([[], {}, [0.5], {"kind": "lp"}]).map(copy.deepcopy),
)


def base(name: str) -> dict:
    doc = {"experiment": name, "master_seed": 1, "output": {"dir": "out", "formats": ["csv", "json"]}}
    return copy.deepcopy({**doc, **BASES[name]})


def paths(node, at=()):
    yield at
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield from paths(v, at + (k,))


def mutate(doc, data):
    """``doc`` with one to three random edits: replace, delete, wrap, or add a key."""
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.sampled_from(list(paths(doc))))
        op = data.draw(st.sampled_from(["replace", "delete", "wrap", "add"]))
        if not at:
            doc = data.draw(LEAVES) if op == "replace" else [doc] if op == "wrap" else doc
            continue
        parent = doc
        for k in at[:-1]:
            parent = parent[k]
        key = at[-1]
        if op == "replace":
            parent[key] = data.draw(LEAVES)
        elif op == "delete":
            del parent[key]
        elif op == "wrap":
            parent[key] = [parent[key]]
        elif isinstance(parent[key], dict):
            parent[key]["extra"] = data.draw(LEAVES)
    return doc


def oracle_field(doc) -> str | None:
    """The field the oracle names when the doc has exactly one violation."""
    errors = list(ORACLE.iter_errors(doc))
    if len(errors) != 1:
        return None
    return "/".join(str(p) for p in jsonschema.exceptions.best_match(errors).absolute_path) or "<root>"


FUZZ = settings(derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=400)
@given(name=st.sampled_from(sorted(BASES)), data=st.data())
def test_schema_check_agrees_with_jsonschema(name, data):
    doc = mutate(base(name), data)
    errors = []
    harness._schema_check()(doc, (), errors, [])
    assert (not errors) == ORACLE.is_valid(doc)
    field = oracle_field(doc)
    if field is not None:
        with pytest.raises(ConfigError) as exc:
            harness.validate_config(doc)
        assert exc.value.field == field


@pytest.mark.parametrize("name", sorted(BASES))
def test_bases_are_valid(name):
    assert ORACLE.is_valid(base(name))
    harness.validate_config(base(name))  # the cross-field rules too


@settings(FUZZ, max_examples=150)
@given(name=st.sampled_from(sorted(BASES)), data=st.data())
def test_cli_ends_in_a_known_exit_code(name, data, tmp_path_factory, monkeypatch_module):
    doc = mutate(base(name), data)
    cfg = tmp_path_factory.mktemp("fuzz") / "config.json"
    cfg.write_text(json.dumps(doc))
    monkeypatch_module.chdir(cfg.parent)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main([name, "--config", str(cfg), "--seed", "3"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


# a field beside another that makes it unread: (experiment, the fields set
# on its base, a None deleting one, the field named)
UNREAD_BESIDE = [
    ("exact-norm", {"count": 2}, "count"),  # beside points
    ("empirical-norm", {"points": [[1.0, 0.5]]}, "count"),
    ("empirical-norm", {"enumerate": True}, "N"),  # beside enumerate: true
    ("empirical-norm", {"enumerate": True, "N": None, "xi": 0.5}, "xi"),
]


@pytest.mark.parametrize("name, extra, field", UNREAD_BESIDE)
def test_a_field_another_makes_unread_is_a_config_error(name, extra, field, tmp_path, capsys):
    doc = {k: v for k, v in {**base(name), **extra}.items() if v is not None}
    doc["output"] = {"dir": str(tmp_path / "o")}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main([name, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"(field: {field})" in err and "has no effect" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp
