"""Experiment harness: configuration, dispatch, report and table emission.

Configs are JSON documents validated against the shipped schema plus
cross-field rules (xi vs N agreement, the fields each experiment requires
and reads, the family and net files).  Validation keeps what it resolves
(the family under the run's caps, N, the net and the points), and the run
uses exactly those objects: no input file is read twice.
The schema is checked by a small interpreter of the Draft 2020-12
keywords it uses (see ``_compile``), so no schema library is imported.
Reports are JSON; plottable tables are CSV with a header row.  Everything
is deterministic given the master seed: per-trial seeds are derived by
index, aggregation is sorted, and the thread count never changes results.
"""

from __future__ import annotations

import csv
import importlib.resources
import json
import math
import numbers
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import concentration as conc
from . import distortion as dist
from . import nets, scalar
from .errors import ConfigError, NormLabError
from .seeding import derive_seed
from .signs import ENUMERATION_CAP, VERTEX_ENUM_CAP, SignMatrix, enumeration_matrix, sample_sign_matrix
from .spaces import VectorFamily, load_family, make_family, space_from_json
from .symmetrize import (
    EmpiricalNormInstance,
    NormInstance,
    batch_empirical_norm,
    exact_unconditional_norm_many,
)

# --- the config schema --------------------------------------------------------
#
# ``_compile`` turns a schema into a check ``check(value, path, errors,
# ints)`` with the semantics of Draft 2020-12 for the keywords below; a
# keyword it does not implement is an error when the schema is loaded, so
# no part of the schema is ignored.  Beyond the draft, a ``number`` must
# convert to a double: a JSON integer too large for one is a violation.
# A check appends each violation to ``errors`` as ``(path, reason)``, and
# to ``ints`` the path of each integral float where an integer is asked.

_SCHEMA_DIALECT = "https://json-schema.org/draft/2020-12/schema"
_KEYWORDS = {
    "type", "enum", "const", "anyOf", "minimum", "maximum", "exclusiveMinimum",
    "items", "minItems", "properties", "required", "additionalProperties",
}
_ANNOTATIONS = {"$schema", "title"}
_BOUNDS = {  # keyword: (violated, reason)
    "minimum": (operator.lt, "less than the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
}


def _is_number(v) -> bool:
    return not isinstance(v, bool) and isinstance(v, (int, float, numbers.Number))


def _is_double(v) -> bool:
    try:
        float(v)
    except OverflowError:  # an integer past the largest double
        return False
    return True


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or (isinstance(v, float) and v.is_integer())
    ),
}


def _field(path) -> str:
    return "/".join(str(p) for p in path) or "<root>"


def _string_value(allowed, key: str, at: tuple):
    """The check of ``enum: allowed`` or ``const: allowed[0]``."""
    if not isinstance(allowed, list) or not all(isinstance(a, str) for a in allowed):
        # JSON equality of numbers and bools is not Python's
        raise ValueError(f"config schema at '{_field(at)}': only string {key} values are implemented")

    def value(v, path, errors, ints):
        if not (isinstance(v, str) and v in allowed):
            reason = f"{v!r} is not one of {allowed!r}" if key == "enum" else f"{allowed[0]!r} was expected"
            errors.append((path, reason))

    return value


def _compile(schema, at: tuple = ()):
    """The check of ``schema`` (see above); ``at`` locates it in messages."""
    if not isinstance(schema, dict):
        raise ValueError(f"config schema at '{_field(at)}' is not an object")
    unknown = sorted(schema.keys() - _KEYWORDS - _ANNOTATIONS)
    if unknown:
        raise ValueError(f"config schema at '{_field(at)}': keyword {unknown[0]!r} is not implemented")
    if schema.get("$schema", _SCHEMA_DIALECT) != _SCHEMA_DIALECT:
        raise ValueError(f"config schema: dialect {schema['$schema']!r} is not {_SCHEMA_DIALECT!r}")
    checks = []

    for key in ("enum", "const"):
        if key in schema:
            checks.append(_string_value(schema[key] if key == "enum" else [schema[key]], key, at))

    if "anyOf" in schema:
        branches = [_compile(s, at + ("anyOf", i)) for i, s in enumerate(schema["anyOf"])]

        def any_of(v, path, errors, ints):
            for branch in branches:
                errs, nums = [], []
                branch(v, path, errs, nums)
                if not errs:
                    ints.extend(nums)
                    return
            errors.append((path, f"{v!r} is not valid under any of the given schemas"))

        checks.append(any_of)

    bounds = [(*_BOUNDS[k], schema[k]) for k in _BOUNDS if k in schema]
    if bounds:
        if not all(_is_number(b) for *_, b in bounds):
            raise ValueError(f"config schema at '{_field(at)}': a bound is not a number")

        def bounded(v, path, errors, ints):
            # a comparison with NaN is false, so NaN passes every bound
            if _is_number(v):
                errors.extend((path, f"{v!r} is {text} of {b!r}") for fails, text, b in bounds if fails(v, b))

        checks.append(bounded)

    if "items" in schema or "minItems" in schema:
        item = _compile(schema["items"], at + ("items",)) if "items" in schema else None
        least = schema.get("minItems", 0)

        def array(v, path, errors, ints):
            if not isinstance(v, list):
                return
            if len(v) < least:
                errors.append((path, f"{v!r} " + ("should be non-empty" if least == 1 else "is too short")))
            if item is not None:
                for i, x in enumerate(v):
                    item(x, path + (i,), errors, ints)

        checks.append(array)

    if schema.keys() & {"properties", "required", "additionalProperties"}:
        props = {k: _compile(s, at + ("properties", k)) for k, s in schema.get("properties", {}).items()}
        required = schema.get("required", [])
        closed = schema.get("additionalProperties", True)
        if not isinstance(closed, bool):
            raise ValueError(f"config schema at '{_field(at)}': additionalProperties must be true or false")

        def members(v, path, errors, ints):
            if not isinstance(v, dict):
                return
            errors.extend((path, f"{k!r} is a required property") for k in required if k not in v)
            extras = sorted((k for k in v if k not in props), key=str) if not closed else []
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                listed = ", ".join(repr(k) for k in extras)
                errors.append((path, f"Additional properties are not allowed ({listed} {verb} unexpected)"))
            for k, x in v.items():
                if k in props:
                    props[k](x, path + (k,), errors, ints)

        checks.append(members)

    kind = schema.get("type")
    if kind is None:
        is_type = None
    elif isinstance(kind, str) and kind in _TYPES:
        is_type = _TYPES[kind]
    else:
        raise ValueError(f"config schema at '{_field(at)}': type {kind!r} is not implemented")

    def check(v, path, errors, ints):
        if is_type is not None and not is_type(v):
            errors.append((path, f"{v!r} is not of type {kind!r}"))
            return
        if kind == "integer" and isinstance(v, float):
            ints.append(path)
        if kind == "number" and not _is_double(v):
            errors.append((path, f"an integer of {len(str(abs(v)))} digits does not convert to a double"))
            return
        for c in checks:
            c(v, path, errors, ints)

    return check


def _int_at(doc, path):
    """``doc`` with the number at ``path`` an int, copying the containers on the path."""
    if not path:
        return int(doc)
    out = list(doc) if isinstance(doc, list) else dict(doc)
    out[path[0]] = _int_at(doc[path[0]], path[1:])
    return out


@cache
def _schema_check():
    """The check of the shipped schema; the file is read and compiled once."""
    ref = importlib.resources.files("normlab") / "schemas" / "config.schema.json"
    return _compile(json.loads(ref.read_text(encoding="utf-8")))


_resolved = partial(field, default=None, init=False, repr=False, compare=False)


@dataclass
class ExperimentConfig:
    """A validated experiment description (echoed verbatim into reports),
    with the objects ``validate_config`` resolved from it; a field the
    experiment does not read stays None.
    """

    experiment: str
    raw: dict = field(repr=False)
    path: str | None = None
    instance: NormInstance | None = _resolved()  # the family under the caps
    N: int | None = _resolved()  # the sign matrix's columns, and xi = N/n - 1
    xi: float | None = _resolved()
    net: nets.NetPoints | None = _resolved()
    points: np.ndarray | None = _resolved()  # given, or the count drawn
    x: np.ndarray | None = _resolved()

    @property
    def master_seed(self) -> int:
        return self.raw["master_seed"]

    @property
    def out_dir(self) -> Path:
        return Path(self.raw["output"]["dir"])

    @property
    def formats(self) -> list[str]:
        return self.raw["output"].get("formats", ["json", "csv"])

    @property
    def threads(self) -> int:
        if "threads" in self.raw:
            return self.raw["threads"]
        env = os.environ.get("NORMLAB_THREADS", "").strip()
        if env and not (env.isdecimal() and int(env) >= 1):  # the schema's bound
            msg = f"config field 'threads' is invalid: NORMLAB_THREADS = {env!r}, not an integer >= 1"
            raise ConfigError(msg, field="threads", path=self.path)
        return int(env) if env else 1


def load_config(path, *, experiment: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Read, override, and validate a config file.

    ``overrides`` maps top-level fields (seed/out-dir/threads come from the
    CLI).  The experiment may come from the file, the caller, or both in
    agreement.
    """
    path = str(path)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}", path=path) from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, or not UTF-8
        raise ConfigError(f"config file {path} cannot be read: {exc}", path=path) from exc
    except ValueError as exc:  # not JSON, or an integer past Python's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}", path=path) from exc
    if overrides and isinstance(doc, dict):  # any other doc fails the schema
        doc = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    return validate_config(doc, path=path, experiment=experiment)


def validate_config(doc: dict, *, path: str | None = None, experiment: str | None = None) -> ExperimentConfig:
    """A checked config: the schema first, then the cross-field rules.

    Of the schema's violations the shallowest is reported, and among
    equally shallow ones the first met by a walk of the config in its
    document order.  An integral float where the schema asks for an
    integer is taken as that integer.
    """
    errors, ints = [], []
    _schema_check()(doc, (), errors, ints)
    if errors:
        at, reason = min(errors, key=lambda e: len(e[0]))
        fld = _field(at)
        raise ConfigError(f"config field '{fld}' is invalid: {reason}", field=fld, path=path)
    for at in ints:
        doc = _int_at(doc, at)

    exp = doc.get("experiment")
    if exp is None and experiment is None:
        raise ConfigError(
            "config field 'experiment' is missing and no subcommand supplied",
            field="experiment",
            path=path,
        )
    if exp is not None and experiment is not None and exp != experiment:
        raise ConfigError(
            f"config field 'experiment' = {exp!r} disagrees with subcommand {experiment!r}",
            field="experiment",
            path=path,
        )
    exp = exp or experiment
    doc = {**doc, "experiment": exp}

    record = EXPERIMENTS[exp]
    if doc.get("threads", 1) > 1 and not record.pooled:
        pooled = sorted(name for name, e in EXPERIMENTS.items() if e.pooled)
        msg = (
            f"config field 'threads' = {doc['threads']}: experiment '{exp}' runs no trials "
            f"in a pool; only {', '.join(pooled)} accept threads > 1"
        )
        raise ConfigError(msg, field="threads", path=path)
    for fld in record.required:
        if fld not in doc:
            raise ConfigError(
                f"experiment '{exp}' requires config field '{fld}'", field=fld, path=path
            )
    reads = {"experiment", "master_seed", "output", "threads", *record.required, *record.reads}
    for fld in (*doc, *(f"{k}/{sub}" for k in ("probes", "caps") for sub in doc.get(k, ()))):
        if fld not in reads:
            msg = f"config field '{fld}' has no effect: experiment '{exp}' does not read it"
            raise ConfigError(msg, field=fld, path=path)
    if "N_list" in record.reads and not ("N_list" in doc and "t" in doc):
        # the amplification check runs only with both N_list and t, and reads trials only then
        for fld, needs in (("N_list", "'t'"), ("t", "'N_list'"), ("trials", "'N_list' and 't'")):
            if fld in doc:
                msg = f"config field '{fld}' has no effect without {needs}: amplification needs both"
                raise ConfigError(msg, field=fld, path=path)
    has_family = "family_file" in doc or ("space" in doc and ("vectors" in doc or "random_vectors" in doc))
    if "family_file" in record.reads and not has_family:
        msg = (
            f"experiment '{exp}' needs a family: inline 'space' plus 'vectors' or "
            "'random_vectors', or a 'family_file'"
        )
        raise ConfigError(msg, field="space", path=path)
    net_file = doc.get("probes", {}).get("net_file")
    if "probes/net_file" in reads and doc.get("probes", {}).get("samples") == 0 and not net_file:
        msg = "config field 'probes/samples' is 0 with no 'probes/net_file': no probes"
        raise ConfigError(msg, field="probes/samples", path=path)
    for fld in ("xi", "xi_list", "theta", "sigma0", "tau", "t", "t_grid"):
        if fld in doc:
            _finite(fld, doc[fld], path)
    cfg = ExperimentConfig(experiment=exp, raw=doc, path=path)
    if "family_file" in record.reads:
        caps = doc.get("caps", {})
        cfg.instance = NormInstance(
            resolve_family(cfg),
            max_n=caps.get("max_enum_n", ENUMERATION_CAP),
            vertex_cap=caps.get("max_dual_vertices_m", VERTEX_ENUM_CAP),
        )
    n = cfg.instance.n if cfg.instance else doc["n"]
    source = next((f for f in ("family_file", "vectors") if f in doc), None)  # what resolve_family read
    unread = {"family_file": ("space", "vectors", "random_vectors"), "vectors": ("random_vectors",)}
    for fld in unread.get(source, ()):
        if fld in doc:
            msg = f"config field '{fld}' has no effect: the family comes from '{source}'"
            raise ConfigError(msg, field=fld, path=path)
    for fld in ("xi", "xi_list"):
        for xi in np.ravel(doc.get(fld, [])):
            if SignMatrix.columns_for_xi(n, float(xi)) < 1:
                msg = f"config field '{fld}' has xi = {xi}: N = round((1+xi) n) < 1 at n = {n}"
                raise ConfigError(msg, field=fld, path=path)
    if "N" in reads and not doc.get("enumerate"):
        cfg.N, cfg.xi = resolve_N(doc, n, path=path)  # one of xi and N, in agreement
    if net_file:
        try:
            cfg.net = nets.load_net(net_file)
        except (OSError, ValueError, TypeError, KeyError) as exc:  # missing, not JSON, or not a net
            msg = f"net_file {net_file} is not a readable net: {type(exc).__name__}: {exc}"
            raise ConfigError(msg, field="probes/net_file", path=path) from exc
        points = cfg.net.points
        if points.ndim != 2 or points.shape[1] != n:
            msg = f"net_file {net_file} has points of shape {points.shape}, expected rows of length n = {n}"
            raise ConfigError(msg, field="probes/net_file", path=path)
    if "x" in doc and len(doc["x"]) != n:
        msg = f"config field 'x' has length {len(doc['x'])}, expected n = {n}"
        raise ConfigError(msg, field="x", path=path)
    cfg.threads  # a bad NORMLAB_THREADS fails here, not mid-run
    if "points" in doc:
        if {len(row) for row in doc["points"]} != {n}:  # none, ragged, or not of length n
            raise ConfigError(f"points must be rows of length n = {n}", field="points", path=path)
        cfg.points = _finite("points", doc["points"], path)
    elif "points" in record.reads:
        rng = np.random.default_rng(np.uint64(derive_seed(cfg.master_seed, 2)))
        cfg.points = rng.standard_normal((doc.get("count", 16), n))
    if "x" in doc:
        cfg.x = _finite("x", doc["x"], path)
    # a field that another one makes unread, whatever its value
    enumerated = "'enumerate' takes all 2^n sign patterns"
    for src, fld, why in (
        ("points", "count", "the points are given in 'points'"),
        ("enumerate", "xi", enumerated),
        ("enumerate", "N", enumerated),
    ):
        if doc.get(src) and fld in doc:
            raise ConfigError(f"config field '{fld}' has no effect: {why}", field=fld, path=path)
    return cfg


def _finite(fld: str, values, path) -> np.ndarray:
    """``values`` as doubles, unless an entry is NaN or infinite (NaN passes the schema's bounds)."""
    arr = np.asarray(values, dtype=np.float64)
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        msg = f"config field '{fld}' is invalid: {float(bad[0])!r} is not finite"
        raise ConfigError(msg, field=fld, path=path)
    return arr


def resolve_family(cfg: ExperimentConfig) -> VectorFamily:
    doc = cfg.raw
    if "family_file" in doc:
        try:
            return load_family(doc["family_file"])
        # OSError: missing, or a directory; TypeError and AttributeError: JSON but not a family
        except (OSError, ValueError, KeyError, TypeError, AttributeError, NormLabError) as exc:
            raise ConfigError(f"invalid family_file: {exc}", field="family_file", path=cfg.path)
    try:
        space = space_from_json(doc["space"])
    except KeyError as exc:
        fld = f"space/{exc.args[0]}"
        raise ConfigError(f"this space requires config field '{fld}'", field=fld, path=cfg.path)
    except ValueError as exc:
        fld = "space/p" if doc["space"]["kind"] == "lp" else "space/functionals"
        raise ConfigError(f"config field '{fld}' is invalid: {exc}", field=fld, path=cfg.path)
    if "vectors" in doc:
        try:
            return make_family(space, doc["vectors"])
        except (NormLabError, ValueError) as exc:  # ValueError: rows of unequal length
            raise ConfigError(f"invalid family vectors: {exc}", field="vectors", path=cfg.path)
    spec = doc["random_vectors"]
    rng = np.random.default_rng(np.uint64(derive_seed(spec.get("seed", cfg.master_seed), 0)))
    vectors = rng.standard_normal((spec["n"], space.dim))
    return make_family(space, vectors)


def resolve_N(doc: dict, n: int, *, path=None) -> tuple[int, float]:
    """N from xi or N (agreeing under N = round((1+xi) n) when both given)."""
    xi = doc.get("xi")
    N = doc.get("N")
    if xi is None and N is None:
        raise ConfigError("one of 'xi' or 'N' is required", field="xi", path=path)
    if xi is not None:
        implied = SignMatrix.columns_for_xi(n, xi)
        if N is not None and N != implied:
            raise ConfigError(
                f"'N' = {N} and 'xi' = {xi} disagree: round((1+xi) n) = {implied}",
                field="N",
                path=path,
            )
        N = implied
    return N, N / n - 1.0


# --- emission helpers ---------------------------------------------------------

def _fmt(v) -> str:
    """Deterministic CSV cell: shortest round-trip floats, empty for None."""
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # numpy 2's repr of its floats names the type
    if isinstance(v, np.ndarray):
        return json.dumps([float(e) for e in v])
    if isinstance(v, (list, tuple)):
        return json.dumps(list(v))
    return str(v)


class Table(NamedTuple):
    """A CSV table a runner produced; written only when "csv" is in the formats."""

    name: str
    header: list[str]
    rows: list[list]


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return [float(e) for e in v]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, float) and math.isinf(v):
        return "-inf" if v < 0 else "inf"
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


@dataclass
class RunReport:
    """Everything a run produced, echoing the resolved config."""

    experiment: str
    config: dict
    resolved_seed: int
    artifact_version: str
    wall_time_s: float
    results: dict
    outputs: dict

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "artifact_version": self.artifact_version,
            "config": _jsonable(self.config),
            "resolved_seed": self.resolved_seed,
            "wall_time_s": self.wall_time_s,
            "results": _jsonable(self.results),
            "outputs": self.outputs,
        }


# the columns of the trials.csv of distortion and xi-sweep after
# xi_requested and trial: each is an attribute of the trial's report
_TRIAL_COLUMNS = {
    "seed": "trial_seed",
    "n": "n",
    "N": "N",
    "xi": "xi",
    "min_estimate": "min_estimate.value",
    "min_method": "min_estimate.method",
    "max_estimate": "max_estimate.value",
    "max_method": "max_estimate.method",
    "probe_min": "probe_min",
    "certified_upper": "certified_upper",
    "covering_status": "covering_status",
    "samples_used": "samples_used",
    "sigma0": "uv.sigma0",
    "count_U": "uv.count_U",
    "count_V": "uv.count_V",
    "min_U": "uv.min_U",
    "min_V": "uv.min_V",
    "argmin": "min_estimate.direction",
    "argmax": "max_estimate.direction",
}
_trial_columns = operator.attrgetter(*_TRIAL_COLUMNS.values())


# --- experiment runners -------------------------------------------------------

def _run_exact_norm(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    X = cfg.points
    vals = exact_unconditional_norm_many(cfg.instance, X)
    rows = [[i, vals[i], X[i]] for i in range(X.shape[0])]
    results = {
        "points": X.shape[0],
        "min": float(vals.min()) if vals.size else None,
        "max": float(vals.max()) if vals.size else None,
    }
    return results, {"values_csv": Table("values.csv", ["index", "exact_norm", "point"], rows)}


def _run_empirical_norm(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    inst = cfg.instance
    if cfg.raw.get("enumerate"):
        signs = enumeration_matrix(inst.n, cap=inst.max_n)
    else:
        signs = sample_sign_matrix(inst.n, cfg.N, derive_seed(cfg.master_seed, 0))
    emp = EmpiricalNormInstance(family=inst.family, signs=signs)
    X = cfg.points
    emp_vals = batch_empirical_norm(emp, X)
    rows, header = [], ["index", "empirical_norm", "point"]
    results: dict = {"N": emp.N, "xi": emp.xi, "points": X.shape[0]}
    if cfg.raw.get("enumerate"):
        exact_vals = exact_unconditional_norm_many(inst, X)
        deltas = np.abs(emp_vals - exact_vals)
        header = ["index", "empirical_norm", "exact_norm", "abs_delta", "point"]
        rows = [[i, emp_vals[i], exact_vals[i], deltas[i], X[i]] for i in range(X.shape[0])]
        results["max_abs_delta"] = float(deltas.max()) if deltas.size else 0.0
    else:
        rows = [[i, emp_vals[i], X[i]] for i in range(X.shape[0])]
    return results, {"values_csv": Table("values.csv", header, rows)}


@contextmanager
def _pool(cfg: ExperimentConfig):
    """A thread pool for the trials when ``threads`` > 1, else None; shut down on exit."""
    if cfg.threads <= 1:
        yield None
        return
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        yield pool


def _aggregate(rows) -> Table:
    """aggregate.csv: the fields of a sweep's summary rows, a flag as 0 or 1."""
    values = [[int(v) if isinstance(v, bool) else v for v in vars(r).values()] for r in rows]
    return Table("aggregate.csv", list(vars(rows[0])), values)


def _run_xi_sweep(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    """``xi-sweep``, and ``distortion`` as the sweep of its one resolved xi."""
    # distortion sweeps the xi of N = round((1+xi) n), whose bits the trial seeds derive from
    xi_list = [cfg.xi] if cfg.experiment == "distortion" else cfg.raw["xi_list"]
    p = cfg.raw.get("probes", {})
    probes = dist.ProbeSpec(**{k: p[k] for k in ("samples", "descent_steps") if k in p}, net=cfg.net)
    # sigma0 = sqrt(2) theta unless given
    sigma0 = cfg.raw.get("sigma0", math.sqrt(2.0) * cfg.raw.get("theta", dist.DEFAULT_THETA))
    with _pool(cfg) as pool:
        profile = dist.xi_sweep(
            cfg.instance,
            xi_list,
            cfg.raw["trials"],
            cfg.master_seed,
            probes,
            sigma0=sigma0,
            pool=pool,
        )
    by_xi = profile.reports_by_xi
    trial_rows = [[xi, t, *_trial_columns(r)] for xi in xi_list for t, r in enumerate(by_xi[xi])]
    tables = {"trials_csv": Table("trials.csv", ["xi_requested", "trial", *_TRIAL_COLUMNS], trial_rows)}
    tentative = sum(r.uv.tentative for reports in by_xi.values() for r in reports)
    scheme = {"seed_scheme": dist.SEED_SCHEME, "probe_seed": profile.probe_seed}
    if cfg.experiment == "distortion":
        return {"summary": vars(profile.rows[0]), "uv_tentative_trials": tentative, **scheme}, tables
    results = {
        "small_xi_loglog_slope": profile.small_xi_loglog_slope,
        "note": profile.note,
        "rows": [vars(r) for r in profile.rows],
        "uv_tentative_trials": tentative,
        **scheme,
    }
    return results, {**tables, "aggregate_csv": _aggregate(profile.rows)}


def _run_scalar_sweep(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    # the config's probes/samples is the sweep's probes
    p = {"probes" if k == "samples" else k: v for k, v in cfg.raw.get("probes", {}).items()}
    with _pool(cfg) as pool:
        result = scalar.scalar_xi_sweep(
            cfg.raw["n"],
            cfg.raw["xi_list"],
            cfg.raw["trials"],
            cfg.master_seed,
            tau=cfg.raw.get("tau"),
            pool=pool,
            **p,
        )
    trial_rows = [
        [r.xi, r.n, r.N, t, r.kappa_min, r.kappa_max, r.kappa_max_certificate]
        for xi in cfg.raw["xi_list"]
        for t, r in enumerate(result.reports_by_xi[xi])
    ]
    trials_header = ["xi", "n", "N", "trial", "kappa_min", "kappa_max", "certificate"]
    results = {
        "small_xi_loglog_slope": result.small_xi_loglog_slope,
        "rows": [vars(r) for r in result.rows],
    }
    return results, {
        "trials_csv": Table("trials.csv", trials_header, trial_rows),
        "aggregate_csv": _aggregate(result.rows),
    }


def _run_concentration(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    inst, x = cfg.instance, cfg.x
    d = conc.exact_distribution(inst, x)
    fit = conc.tail_check(d, cfg.raw.get("t_grid")) if d.sigma.value > 0 else None
    outputs = {}
    if fit is not None:
        outputs["tail_csv"] = Table(
            "tail.csv", ["t", "tail_probability"], [[t, p] for t, p in zip(fit.ts, fit.tails)]
        )
    if d.atom_count <= 4096:
        outputs["atoms_csv"] = Table(
            "atoms.csv", ["value", "probability"], [[v, p] for v, p in zip(d.values, d.probs)]
        )
    amp = None
    if "N_list" in cfg.raw and "t" in cfg.raw:
        try:
            amp = conc.amplification_check(
                inst, x, cfg.raw["N_list"], cfg.raw["t"], cfg.raw.get("trials", 2000), cfg.master_seed
            )
        except ValueError as exc:  # t at or below the expectation
            raise ConfigError(f"config field 't' is invalid: {exc}", field="t", path=cfg.path) from exc
        outputs["amplification_csv"] = Table(
            "amplification.csv", ["N", "frequency"], [[r.N, r.frequency] for r in amp.rows]
        )
    gap = conc.median_vs_mean(d)
    results = {
        "atom_count": d.atom_count,
        "expectation": d.expectation,
        "median": d.median,
        "variance": d.variance,
        "sigma": d.sigma.value,
        "sigma_method": d.sigma.method,
        "median_mean_gap": gap.gap,
        "stddev": gap.stddev,
        "tail_fit": None
        if fit is None or fit.skipped
        else {"log_coeff": fit.log_coeff, "decay": fit.decay},
        "amplification_slope": None if amp is None else amp.slope,
    }
    return results, outputs


def _run_net_build(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    net = nets.build_net(cfg.instance, cfg.raw["theta"], budget=cfg.raw.get("budget"), seed=cfg.master_seed)
    net_path = out / "net.json"
    nets.save_net(net, net_path)
    results = {
        "theta": net.theta,
        "size": net.size,
        "covering_status": net.covering_status,
        "candidates_scanned": net.candidate_budget,
    }
    return results, {"net_json": net_path.name}


class Experiment(NamedTuple):
    """An experiment's runner, the fields it requires, the other fields it
    reads on some path, and whether it maps its trials over a pool of
    ``threads`` workers.  Every experiment also reads experiment,
    master_seed, output and threads; "probes/x" is the field x of probes,
    and "caps/x" that of caps.  A field that no path of an experiment reads
    is rejected, and an experiment that reads the family fields needs a family.
    """

    run: Callable[[ExperimentConfig, Path], tuple[dict, dict]]
    required: tuple[str, ...]
    reads: tuple[str, ...]
    pooled: bool = False


_FAMILY = ("space", "vectors", "random_vectors", "family_file")
_ENUM_CAP = ("caps", "caps/max_enum_n")
_CAPS = (*_ENUM_CAP, "caps/max_dual_vertices_m")
# what distortion and xi-sweep read besides the family and the size of the sign matrix
_SWEEP = ("probes", "probes/samples", "probes/descent_steps", "probes/net_file", "theta", "sigma0", *_CAPS)
EXPERIMENTS = {
    "exact-norm": Experiment(_run_exact_norm, (), (*_FAMILY, "points", "count", *_ENUM_CAP)),
    "empirical-norm": Experiment(
        _run_empirical_norm, (), (*_FAMILY, "xi", "N", "enumerate", "points", "count", *_ENUM_CAP)
    ),
    "distortion": Experiment(_run_xi_sweep, ("trials",), (*_FAMILY, "xi", "N", *_SWEEP), pooled=True),
    "xi-sweep": Experiment(_run_xi_sweep, ("xi_list", "trials"), (*_FAMILY, *_SWEEP), pooled=True),
    "scalar-sweep": Experiment(
        _run_scalar_sweep,
        ("n", "xi_list", "trials"),
        ("probes", "probes/samples", "probes/descent_steps", "probes/restarts", "tau"),
        pooled=True,
    ),
    "concentration": Experiment(
        _run_concentration, ("x",), (*_FAMILY, "t_grid", "N_list", "t", "trials", *_CAPS)
    ),
    "net-build": Experiment(_run_net_build, ("theta",), (*_FAMILY, "budget", *_ENUM_CAP)),
}


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Dispatch to the owning module, write the report and tables."""
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    results, produced = EXPERIMENTS[config.experiment].run(config, out)
    outputs = {}
    for tag, item in produced.items():
        if isinstance(item, Table):
            if "csv" not in config.formats:
                continue
            write_csv(out / item.name, item.header, item.rows)
            item = item.name
        outputs[tag] = item
    wall = time.perf_counter() - start
    report = RunReport(
        experiment=config.experiment,
        config=config.raw,
        resolved_seed=config.master_seed,
        artifact_version=__version__,
        wall_time_s=wall,
        results=results,
        outputs=outputs,
    )
    if "json" in config.formats:
        with open(out / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
