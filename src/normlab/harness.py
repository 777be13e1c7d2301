"""Experiment harness: configuration, dispatch, report and table emission.

Configs are JSON documents validated against the shipped schema plus
cross-field rules (xi vs N agreement, per-experiment required fields).
Reports are JSON; plottable tables are CSV with a header row.  Everything
is deterministic given the master seed: per-trial seeds are derived by
index, aggregation is sorted, and the thread count never changes results.
"""

from __future__ import annotations

import csv
import importlib.resources
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import NamedTuple

import jsonschema
import numpy as np

from . import __version__
from . import concentration as conc
from . import distortion as dist
from . import nets, scalar
from .errors import ConfigError, NormLabError
from .seeding import derive_seed
from .signs import enumeration_matrix, sample_sign_matrix
from .spaces import VectorFamily, load_family, make_family, space_from_json
from .symmetrize import (
    EmpiricalNormInstance,
    NormInstance,
    batch_empirical_norm,
    exact_unconditional_norm_many,
)

EXPERIMENTS = (
    "exact-norm",
    "empirical-norm",
    "distortion",
    "xi-sweep",
    "scalar-sweep",
    "concentration",
    "net-build",
)

DEFAULT_CAPS = {"max_enum_n": 22, "max_dual_vertices_m": 20}


@cache
def _validator():
    """Validator of the shipped schema; the schema is read and checked once."""
    ref = importlib.resources.files("normlab") / "schemas" / "config.schema.json"
    schema = json.loads(ref.read_text(encoding="utf-8"))
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


@dataclass
class ExperimentConfig:
    """A validated experiment description (echoed verbatim into reports)."""

    experiment: str
    raw: dict = field(repr=False)
    path: str | None = None

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
    def caps(self) -> dict:
        return {**DEFAULT_CAPS, **self.raw.get("caps", {})}

    @property
    def threads(self) -> int:
        if "threads" in self.raw:
            return self.raw["threads"]
        env = os.environ.get("NORMLAB_THREADS")
        return int(env) if env else 1


_REQUIRED_BY_EXPERIMENT = {
    "exact-norm": [],
    "empirical-norm": [],
    "distortion": ["trials"],
    "xi-sweep": ["xi_list", "trials"],
    "scalar-sweep": ["n", "xi_list", "trials"],
    "concentration": ["x"],
    "net-build": ["theta"],
}
_FAMILY_FREE = {"scalar-sweep"}
# experiments that map their trials over a pool of ``threads`` workers
_POOLED = {"distortion", "xi-sweep", "scalar-sweep"}


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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", path=path) from exc
    if overrides:
        doc = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    return validate_config(doc, path=path, experiment=experiment)


def validate_config(doc: dict, *, path: str | None = None, experiment: str | None = None) -> ExperimentConfig:
    # the error jsonschema.validate would raise
    exc = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if exc is not None:
        fld = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(
            f"config field '{fld}' is invalid: {exc.message}", field=fld, path=path
        ) from exc

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

    if doc.get("threads", 1) > 1 and exp not in _POOLED:
        msg = (
            f"config field 'threads' = {doc['threads']}: experiment '{exp}' runs no trials "
            f"in a pool; only {', '.join(sorted(_POOLED))} accept threads > 1"
        )
        raise ConfigError(msg, field="threads", path=path)
    for fld in _REQUIRED_BY_EXPERIMENT[exp]:
        if fld not in doc:
            raise ConfigError(
                f"experiment '{exp}' requires config field '{fld}'", field=fld, path=path
            )
    if exp not in _FAMILY_FREE:
        has_family = ("space" in doc and ("vectors" in doc or "random_vectors" in doc)) or (
            "family_file" in doc
        )
        if not has_family:
            raise ConfigError(
                f"experiment '{exp}' needs a family: inline 'space' plus 'vectors' or "
                f"'random_vectors', or a 'family_file'",
                field="space",
                path=path,
            )
        if "family_file" in doc and not Path(doc["family_file"]).exists():
            raise ConfigError(
                f"family_file does not exist: {doc['family_file']}",
                field="family_file",
                path=path,
            )
    net_file = doc.get("probes", {}).get("net_file")
    if net_file and not Path(net_file).exists():
        raise ConfigError(f"net_file does not exist: {net_file}", field="probes/net_file", path=path)
    if exp in ("distortion", "xi-sweep") and doc.get("probes", {}).get("samples") == 0 and not net_file:
        msg = "config field 'probes/samples' is 0 with no 'probes/net_file': no probes"
        raise ConfigError(msg, field="probes/samples", path=path)
    cfg = ExperimentConfig(experiment=exp, raw=doc, path=path)
    n = doc["n"] if exp in _FAMILY_FREE else resolve_family(cfg).n
    for fld in ("xi", "xi_list"):
        for xi in np.ravel(doc.get(fld, [])):
            if round((1.0 + float(xi)) * n) < 1:
                msg = f"config field '{fld}' has xi = {xi}: N = round((1+xi) n) < 1 at n = {n}"
                raise ConfigError(msg, field=fld, path=path)
    if exp == "concentration" and len(doc["x"]) != n:
        msg = f"config field 'x' has length {len(doc['x'])}, expected n = {n}"
        raise ConfigError(msg, field="x", path=path)
    return cfg


def resolve_family(cfg: ExperimentConfig) -> VectorFamily:
    doc = cfg.raw
    if "family_file" in doc:
        try:
            return load_family(doc["family_file"])
        except (ValueError, KeyError, NormLabError) as exc:
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
        except NormLabError as exc:
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
        implied = int(round((1.0 + xi) * n))
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
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, np.floating):
        return repr(float(v))
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


def _trial_row(xi_tag, t: int, r: dist.DistortionReport) -> list:
    return [
        xi_tag,
        t,
        r.trial_seed,
        r.n,
        r.N,
        r.xi,
        r.min_estimate.value,
        r.min_estimate.method,
        r.max_estimate.value,
        r.max_estimate.method,
        r.probe_min,
        r.certified_upper,
        r.covering_status,
        r.samples_used,
        r.uv.sigma0,
        r.uv.count_U,
        r.uv.count_V,
        r.uv.min_U,
        r.uv.min_V,
        r.min_estimate.direction,
        r.max_estimate.direction,
    ]


_TRIAL_HEADER = [
    "xi_requested",
    "trial",
    "seed",
    "n",
    "N",
    "xi",
    "min_estimate",
    "min_method",
    "max_estimate",
    "max_method",
    "probe_min",
    "certified_upper",
    "covering_status",
    "samples_used",
    "sigma0",
    "count_U",
    "count_V",
    "min_U",
    "min_V",
    "argmin",
    "argmax",
]


def _probe_spec(cfg: ExperimentConfig) -> dist.ProbeSpec:
    p = cfg.raw.get("probes", {})
    net = nets.load_net(p["net_file"]) if p.get("net_file") else None
    return dist.ProbeSpec(
        samples=p.get("samples", 2000),
        descent_steps=p.get("descent_steps", 50),
        net=net,
    )


def _sigma0(cfg: ExperimentConfig) -> float:
    if "sigma0" in cfg.raw:
        return cfg.raw["sigma0"]
    theta = cfg.raw.get("theta", dist.DEFAULT_THETA)
    return math.sqrt(2.0) * theta


def _resolve_points(cfg: ExperimentConfig, n: int) -> np.ndarray:
    if "points" in cfg.raw:
        pts = np.asarray(cfg.raw["points"], dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != n:
            raise ConfigError(
                f"points must be rows of length n = {n}", field="points", path=cfg.path
            )
        return pts
    count = cfg.raw.get("count", 16)
    rng = np.random.default_rng(np.uint64(derive_seed(cfg.master_seed, 2)))
    return rng.standard_normal((count, n))


# --- experiment runners -------------------------------------------------------

def _run_exact_norm(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    family = resolve_family(cfg)
    inst = NormInstance(family=family)
    X = _resolve_points(cfg, inst.n)
    vals = exact_unconditional_norm_many(inst, X, max_n=cfg.caps["max_enum_n"])
    rows = [[i, vals[i], X[i]] for i in range(X.shape[0])]
    results = {
        "points": X.shape[0],
        "min": float(vals.min()) if vals.size else None,
        "max": float(vals.max()) if vals.size else None,
    }
    return results, {"values_csv": Table("values.csv", ["index", "exact_norm", "point"], rows)}


def _run_empirical_norm(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    family = resolve_family(cfg)
    inst = NormInstance(family=family)
    n = inst.n
    if cfg.raw.get("enumerate"):
        signs = enumeration_matrix(n, cap=cfg.caps["max_enum_n"])
    else:
        N, _ = resolve_N(cfg.raw, n, path=cfg.path)
        signs = sample_sign_matrix(n, N, derive_seed(cfg.master_seed, 0))
    emp = EmpiricalNormInstance(family=family, signs=signs)
    X = _resolve_points(cfg, n)
    emp_vals = batch_empirical_norm(emp, X)
    rows, header = [], ["index", "empirical_norm", "point"]
    results: dict = {"N": emp.N, "xi": emp.xi, "points": X.shape[0]}
    if cfg.raw.get("enumerate"):
        exact_vals = exact_unconditional_norm_many(inst, X, max_n=cfg.caps["max_enum_n"])
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


def _run_distortion(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    family = resolve_family(cfg)
    inst = NormInstance(family=family)
    N, xi = resolve_N(cfg.raw, inst.n, path=cfg.path)
    probes = _probe_spec(cfg)
    trials = cfg.raw["trials"]
    with _pool(cfg) as pool:
        reports = dist.run_trials(
            inst,
            xi,
            trials,
            cfg.master_seed,
            probes,
            sigma0=_sigma0(cfg),
            max_n=cfg.caps["max_enum_n"],
            vertex_cap=cfg.caps["max_dual_vertices_m"],
            pool=pool,
        )
    rows = [_trial_row(xi, t, r) for t, r in enumerate(reports)]
    summary = dist.summarize_reports(xi, reports)
    results = {
        "summary": summary.__dict__,
        "uv_tentative_trials": sum(r.uv.tentative for r in reports),
    }
    return results, {"trials_csv": Table("trials.csv", _TRIAL_HEADER, rows)}


def _run_xi_sweep(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    family = resolve_family(cfg)
    inst = NormInstance(family=family)
    probes = _probe_spec(cfg)
    with _pool(cfg) as pool:
        profile = dist.xi_sweep(
            inst,
            cfg.raw["xi_list"],
            cfg.raw["trials"],
            cfg.master_seed,
            probes,
            sigma0=_sigma0(cfg),
            max_n=cfg.caps["max_enum_n"],
            vertex_cap=cfg.caps["max_dual_vertices_m"],
            pool=pool,
        )
    trial_rows = []
    for xi in cfg.raw["xi_list"]:
        for t, r in enumerate(profile.reports_by_xi[xi]):
            trial_rows.append(_trial_row(xi, t, r))
    agg_rows = [
        [
            r.xi, r.n, r.N, r.trials,
            r.min_q1, r.min_median, r.min_q3,
            r.max_q1, r.max_median, r.max_q3,
        ]
        for r in profile.rows
    ]
    agg_header = ["xi", "n", "N", "trials", "min_q1", "min_median", "min_q3",
                  "max_q1", "max_median", "max_q3"]
    results = {
        "small_xi_loglog_slope": profile.small_xi_loglog_slope,
        "note": profile.note,
        "rows": [r.__dict__ for r in profile.rows],
        "uv_tentative_trials": sum(
            r.uv.tentative for reports in profile.reports_by_xi.values() for r in reports
        ),
    }
    return results, {
        "trials_csv": Table("trials.csv", _TRIAL_HEADER, trial_rows),
        "aggregate_csv": Table("aggregate.csv", agg_header, agg_rows),
    }


def _run_scalar_sweep(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    p = cfg.raw.get("probes", {})
    with _pool(cfg) as pool:
        result = scalar.scalar_xi_sweep(
            cfg.raw["n"],
            cfg.raw["xi_list"],
            cfg.raw["trials"],
            cfg.master_seed,
            probes=p.get("samples", 128),
            descent_steps=p.get("descent_steps", 40),
            restarts=p.get("restarts", 2),
            tau=cfg.raw.get("tau"),
            pool=pool,
        )
    trial_rows = []
    for xi in cfg.raw["xi_list"]:
        for t, r in enumerate(result.reports_by_xi[xi]):
            trial_rows.append([r.xi, r.n, r.N, t, r.kappa_min, r.kappa_max, r.kappa_max_certificate])
    agg_rows = [
        [
            r.xi, r.n, r.N, r.trials, int(r.outside_stated_range),
            r.kmin_q1, r.kmin_median, r.kmin_q3,
            r.kmax_q1, r.kmax_median, r.kmax_q3,
            r.freq_below_tau,
        ]
        for r in result.rows
    ]
    agg_header = ["xi", "n", "N", "trials", "outside_stated_range",
                  "kmin_q1", "kmin_median", "kmin_q3",
                  "kmax_q1", "kmax_median", "kmax_q3", "freq_below_tau"]
    trials_header = ["xi", "n", "N", "trial", "kappa_min", "kappa_max", "certificate"]
    results = {
        "small_xi_loglog_slope": result.small_xi_loglog_slope,
        "rows": [r.__dict__ for r in result.rows],
    }
    return results, {
        "trials_csv": Table("trials.csv", trials_header, trial_rows),
        "aggregate_csv": Table("aggregate.csv", agg_header, agg_rows),
    }


def _run_concentration(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    family = resolve_family(cfg)
    x = np.asarray(cfg.raw["x"], dtype=np.float64)
    max_n = cfg.caps["max_enum_n"]
    d = conc.exact_distribution(family, x, max_n=max_n)
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
        amp = conc.amplification_check(
            family,
            x,
            cfg.raw["N_list"],
            cfg.raw["t"],
            cfg.raw.get("trials", 2000),
            cfg.master_seed,
            max_n=max_n,
        )
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
    family = resolve_family(cfg)
    inst = NormInstance(family=family)
    net = nets.build_net(
        inst,
        cfg.raw["theta"],
        budget=cfg.raw.get("budget"),
        seed=cfg.master_seed,
        max_n=cfg.caps["max_enum_n"],
    )
    net_path = out / "net.json"
    nets.save_net(net, net_path)
    results = {
        "theta": net.theta,
        "size": net.size,
        "covering_status": net.covering_status,
        "candidates_scanned": net.candidate_budget,
    }
    return results, {"net_json": net_path.name}


_RUNNERS = {
    "exact-norm": _run_exact_norm,
    "empirical-norm": _run_empirical_norm,
    "distortion": _run_distortion,
    "xi-sweep": _run_xi_sweep,
    "scalar-sweep": _run_scalar_sweep,
    "concentration": _run_concentration,
    "net-build": _run_net_build,
}


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Dispatch to the owning module, write the report and tables."""
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    results, produced = _RUNNERS[config.experiment](config, out)
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
