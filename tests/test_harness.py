import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import normlab as nl
from normlab import harness
from normlab.cli import _build_parser
from normlab.cli import main as cli_main
from normlab.errors import ConfigError
from normlab.harness import load_config, resolve_N, run_experiment, validate_config
from normlab.weakvar import weak_variances


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@pytest.fixture
def family_file(tmp_path, rng):
    fam = nl.make_family(nl.lp_space("inf", 3), rng.standard_normal((6, 3)))
    path = tmp_path / "family.json"
    nl.save_family(fam, path)
    return str(path)


def fresh_python(code: str, *args: str) -> str:
    """The last line ``code`` prints when run by a new interpreter that imports this normlab."""
    src = str(Path(nl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.strip().splitlines()[-1]


# net files that are not JSON, not a net, or a net of n = 3, by name
NET_N3 = {"theta": 0.5, "points": [[1.0, 0.0, 0.0]], "separation_certified": True,
          "covering_status": "heuristic", "candidate_budget": 1}
BAD_NET_FILES = {
    "not-json.json": "{not json",
    "list.json": "[1, 2]",
    "not-a-net.json": json.dumps({"theta": 0.5}),
    "net-n3.json": json.dumps(NET_N3),
}
# family files that are JSON but not a family, by name
BAD_FAMILY_FILES = {
    "list-family.json": "[1, 2]",
    "int-space.json": json.dumps({"space": 5, "vectors": [[1.0]]}),
    "list-dim.json": json.dumps({"space": {"kind": "lp", "p": 2, "dim": [1]}, "vectors": [[1.0]]}),
    "null-p.json": json.dumps({"space": {"kind": "lp", "p": None, "dim": 1}, "vectors": [[1.0]]}),
}

# a value of each field that the schema accepts
FIELD_VALUES = {
    "tau": 0.1, "xi": 0.5, "xi_list": [0.5], "N": 3, "n": 3, "budget": 3, "count": 2,
    "x": [1.0], "t": 1.0, "N_list": [2], "enumerate": True, "points": [[1.0]], "sigma0": 0.5,
    "theta": 0.5, "space": {"kind": "lp", "p": 2, "dim": 2}, "vectors": [[1.0, 0.0]],
    "caps/max_dual_vertices_m": 3,
}
# experiment: (a valid config's own fields, fields that no path of it reads)
UNREAD = {
    "exact-norm": ({}, ["xi", "caps/max_dual_vertices_m"]),
    "empirical-norm": ({"xi": 0.5}, ["theta", "caps/max_dual_vertices_m"]),
    "distortion": (
        {"xi": 0.5, "trials": 1},
        ["tau", "xi_list", "budget", "count", "n", "x", "t", "N_list", "enumerate", "points"],
    ),
    "xi-sweep": (
        {"xi_list": [0.5], "trials": 1},
        ["tau", "xi", "N", "budget", "count", "n", "x", "t", "N_list", "enumerate", "points"],
    ),
    "scalar-sweep": (
        {"n": 3, "xi_list": [0.5], "trials": 1, "probes": {"samples": 4}},
        ["xi", "N", "sigma0", "theta", "budget", "count", "x", "t", "N_list", "enumerate",
         "points", "space", "vectors", "probes/net_file"],
    ),
    "concentration": ({"x": [1.0] * 6}, ["budget"]),
    "net-build": ({"theta": 0.5}, ["count", "caps/max_dual_vertices_m"]),
}


# configs with a non-finite number, which the schema's bounds let through:
# (experiment, its fields, the field named)
NAN, INF = float("nan"), float("inf")
NON_FINITE = [
    ("distortion", {"xi": 0.5, "trials": 1, "sigma0": NAN}, "sigma0"),
    ("xi-sweep", {"xi_list": [0.5], "trials": 1, "sigma0": INF}, "sigma0"),
    ("distortion", {"xi": 0.5, "trials": 1, "theta": NAN}, "theta"),
    ("scalar-sweep", {"n": 3, "xi_list": [0.5], "trials": 1, "tau": NAN}, "tau"),
    ("scalar-sweep", {"n": 3, "xi_list": [0.5], "trials": 1, "tau": INF}, "tau"),
    ("scalar-sweep", {"n": 3, "xi_list": [0.5, -INF], "trials": 1}, "xi_list"),
    ("concentration", {"x": [1.0] * 6, "t_grid": [0.5, NAN]}, "t_grid"),
    ("concentration", {"x": [1.0] * 6, "N_list": [2], "t": INF}, "t"),
    ("exact-norm", {"points": [[1.0] * 6, [1.0] * 5 + [NAN]]}, "points"),
    ("empirical-norm", {"xi": 0.5, "points": [[INF] + [1.0] * 5]}, "points"),
    ("concentration", {"x": [1.0] * 5 + [-INF]}, "x"),
]
# configs with a JSON integer past the largest double where the schema asks
# for a number: (experiment, its fields, the field named)
HUGE = 10**400
PAST_DOUBLE = [
    ("scalar-sweep", {"n": 3, "xi_list": [0.5], "trials": 1, "tau": HUGE}, "tau"),
    ("distortion", {"xi": HUGE, "trials": 1}, "xi"),
    ("exact-norm", {"space": {"kind": "lp", "p": HUGE, "dim": 3}}, "space/p"),
    ("exact-norm", {"space": {"kind": "lp", "p": 2, "dim": 2}, "vectors": [[1, 0.5], [HUGE, 1]]}, "vectors/1/0"),
    ("exact-norm", {"points": [[1.0] * 6, [1.0] * 5 + [-HUGE]]}, "points/1/5"),
    ("concentration", {"x": [1.0] * 5 + [HUGE]}, "x/5"),
]


def base_config(tmp_path, family_file, **extra):
    doc = {
        "family_file": family_file,
        "master_seed": 7,
        "output": {"dir": str(tmp_path / "out")},
    }
    doc.update(extra)
    return doc


class TestConfigValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json", experiment="distortion")

    def test_malformed_json_names_problem(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(p, experiment="distortion")

    def test_unknown_field_rejected(self, tmp_path, family_file):
        doc = base_config(tmp_path, family_file, trials=2, xi=0.5, bogus=1)
        with pytest.raises(ConfigError) as exc:
            validate_config(doc, experiment="distortion")
        assert "bogus" in str(exc.value)

    def test_missing_required_field_named(self, tmp_path, family_file):
        doc = base_config(tmp_path, family_file, xi=0.5)
        with pytest.raises(ConfigError) as exc:
            validate_config(doc, experiment="distortion")
        assert exc.value.field == "trials"

    def test_schema_is_read_once(self, tmp_path, family_file):
        code = (
            "import json, sys\n"
            "opened = []\n"
            "sys.addaudithook(lambda event, args: event == 'open'"
            " and str(args[0]).endswith('config.schema.json') and opened.append(args[0]))\n"
            "from normlab.harness import validate_config\n"
            "for _ in range(3):\n"
            "    validate_config(json.loads(sys.argv[1]), experiment='distortion')\n"
            "print(len(opened))\n"
        )
        doc = base_config(tmp_path, family_file, trials=2, xi=0.5)
        assert fresh_python(code, json.dumps(doc)) == "1"

    def test_config_loading_does_not_import_jsonschema(self, tmp_path, family_file):
        good = base_config(tmp_path, family_file, trials=1, xi=0.5, probes={"samples": 4, "descent_steps": 1})
        bad = base_config(tmp_path, family_file, trials=0, xi=0.5)
        paths = [write_json(tmp_path / f"{tag}.json", doc) for tag, doc in (("good", good), ("bad", bad))]
        code = (
            "import sys\n"
            "import normlab\n"
            "before = 'jsonschema' in sys.modules\n"
            "from normlab.cli import main\n"
            "codes = [main(['distortion', '--config', p]) for p in sys.argv[1:]]\n"
            "print(before, 'jsonschema' in sys.modules, codes)\n"
        )
        assert fresh_python(code, *paths) == "False False [0, 2]"

    @pytest.mark.parametrize(
        "schema, keyword",
        [
            ({"type": "object", "patternProperties": {"^x": {}}}, "patternProperties"),
            ({"properties": {"a": {"type": "string", "format": "email"}}}, "format"),
            ({"items": {"anyOf": [{"type": "number"}, {"multipleOf": 2}]}}, "multipleOf"),
            ({"type": "null"}, "null"),
            ({"type": ["string", "null"]}, "type"),
            ({"enum": ["a", 1]}, "enum"),
            ({"enum": ["a"], "const": True}, "const"),
            ({"additionalProperties": {"type": "string"}}, "additionalProperties"),
        ],
    )
    def test_schema_with_an_unimplemented_keyword_is_rejected(self, schema, keyword):
        with pytest.raises(ValueError, match=keyword):
            harness._compile(schema)

    @pytest.mark.parametrize(
        "extra, field, message",
        [
            ({"trials": 2.5}, "trials", "is not of type 'integer'"),
            ({"trials": True}, "trials", "is not of type 'integer'"),
            ({"xi": float("nan")}, "xi", "nan is not finite"),
            ({"xi": -1}, "xi", "-1 is less than or equal to the minimum of -1"),
            ({"probes": {"samples": 3, "bogus": 1, "restarts": 0}}, "probes", "'bogus' was unexpected"),
            ({"probes": {"samples": "3"}, "space": {"kind": "lp", "p": "x"}}, "probes/samples", "not of type"),
            ({"space": {"kind": "lp", "p": "x"}, "random_vectors": {"n": 3}}, "space/p", "any of the given"),
        ],
    )
    def test_schema_reports_the_shallowest_violation(self, tmp_path, family_file, extra, field, message):
        doc = base_config(tmp_path, family_file, **{"trials": 2, "xi": 0.5, **extra})
        with pytest.raises(ConfigError, match=message) as exc:
            validate_config(doc, experiment="distortion")
        assert exc.value.field == field

    def test_integral_float_is_read_as_an_integer(self, tmp_path, family_file):
        doc = base_config(tmp_path, family_file, trials=2.0, xi=0.5, probes={"samples": 3.0})
        cfg = validate_config(doc, experiment="distortion")
        assert type(cfg.raw["trials"]) is int and type(cfg.raw["probes"]["samples"]) is int
        assert type(doc["trials"]) is float and type(doc["probes"]["samples"]) is float

    def test_experiment_mismatch(self, tmp_path, family_file):
        doc = base_config(tmp_path, family_file, experiment="xi-sweep", trials=2, xi=0.5)
        with pytest.raises(ConfigError):
            validate_config(doc, experiment="distortion")

    def test_missing_family(self, tmp_path):
        doc = {"master_seed": 1, "trials": 2, "xi": 0.5, "output": {"dir": str(tmp_path)}}
        with pytest.raises(ConfigError) as exc:
            validate_config(doc, experiment="distortion")
        assert exc.value.field == "space"

    def test_missing_family_file(self, tmp_path):
        doc = {
            "family_file": str(tmp_path / "ghost.json"),
            "master_seed": 1,
            "trials": 2,
            "xi": 0.5,
            "output": {"dir": str(tmp_path)},
        }
        with pytest.raises(ConfigError) as exc:
            validate_config(doc, experiment="distortion")
        assert exc.value.field == "family_file"
        # a directory is no family file either
        with pytest.raises(ConfigError) as exc:
            validate_config({**doc, "family_file": str(tmp_path)}, experiment="distortion")
        assert exc.value.field == "family_file"

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_config_path_that_cannot_be_read_exits_2(self, tmp_path, capsys, kind):
        if kind == "directory":
            cfg = tmp_path
        else:
            cfg = tmp_path / "c.json"
            cfg.write_bytes(b"\xff\xfe\x00{}")
        assert cli_main(["exact-norm", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "extra, field",
        [
            ({"space": {"kind": "lp", "p": 2, "dim": 3}, "vectors": [[1, 0, 0]]}, "space"),
            ({"vectors": [[1, 0, 0]]}, "vectors"),
            ({"random_vectors": {"n": 3}}, "random_vectors"),
        ],
    )
    def test_a_source_beside_the_family_file_is_a_config_error(
        self, tmp_path, family_file, capsys, extra, field
    ):
        doc = {"family_file": family_file, "master_seed": 1, "output": {"dir": str(tmp_path / "o")}, **extra}
        cfg = write_json(tmp_path / "c.json", doc)
        assert cli_main(["exact-norm", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"(field: {field})" in err and "has no effect" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "experiment, field", [(e, f) for e, (_, fields) in UNREAD.items() for f in fields]
    )
    def test_a_field_that_no_path_reads_is_a_config_error(
        self, tmp_path, family_file, capsys, experiment, field
    ):
        own, _ = UNREAD[experiment]
        doc = {"master_seed": 1, "output": {"dir": str(tmp_path / "o")}, **own}
        if experiment != "scalar-sweep":
            doc["family_file"] = family_file
        validate_config(doc, experiment=experiment)
        if field == "probes/net_file":
            nl.save_net(nl.NetPoints(0.5, np.eye(3)[:1], True, "heuristic", 1), tmp_path / "net.json")
            value = str(tmp_path / "net.json")
        else:
            value = FIELD_VALUES[field]
        if "/" in field:  # a field of probes or caps
            parent, sub = field.split("/")
            doc[parent] = {**doc.get(parent, {}), sub: value}
        else:
            doc[field] = value
        cfg = write_json(tmp_path / "c.json", doc)
        assert cli_main([experiment, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"(field: {field})" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "experiment, extra, field",
        [
            ("distortion", {"trials": 1}, "xi"),
            ("empirical-norm", {}, "xi"),
            ("distortion", {"trials": 1, "xi": 0.5, "N": 4}, "N"),
            ("empirical-norm", {"xi": 0.5, "N": 4}, "N"),
        ],
    )
    def test_xi_N_error_comes_before_the_output_directory(
        self, tmp_path, family_file, capsys, experiment, extra, field
    ):
        # the family has n = 6: xi = 0.5 gives N = 9, not 4
        doc = {"family_file": family_file, "master_seed": 1, "output": {"dir": str(tmp_path / "o")}, **extra}
        cfg = write_json(tmp_path / "c.json", doc)
        assert cli_main([experiment, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"(field: {field})" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment, extra", [("exact-norm", {}), ("empirical-norm", {"xi": 0.5})])
    @pytest.mark.parametrize("points", [[[1.0] * 5], [[1.0] * 6, [1.0] * 5]], ids=["short", "ragged"])
    def test_points_of_the_wrong_shape_fail_before_the_output_directory(
        self, tmp_path, family_file, capsys, experiment, extra, points
    ):
        doc = base_config(tmp_path, family_file, points=points, **extra)
        assert cli_main([experiment, "--config", write_json(tmp_path / "c.json", doc)]) == 2
        err = capsys.readouterr().err
        assert "(field: points)" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_a_run_reads_its_inputs_once(self, tmp_path, family_file, monkeypatch):
        net_path = tmp_path / "net.json"
        nl.save_net(nl.build_net(nl.NormInstance(nl.load_family(family_file)), 0.5, budget=60, seed=1), net_path)
        probes = {"samples": 10, "descent_steps": 2, "net_file": str(net_path)}
        doc = base_config(tmp_path, family_file, xi=0.5, trials=2, probes=probes)
        run_experiment(validate_config(doc, experiment="distortion"))
        calls = []
        for owner, name in ((harness, "load_family"), (harness.nets, "load_net")):
            loader = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda path, f=loader, name=name: calls.append(name) or f(path))
        cfg = validate_config(dict(doc, output={"dir": str(tmp_path / "again")}), experiment="distortion")
        # the family file rewritten between load and run: the run keeps what was loaded
        nl.save_family(nl.make_family(nl.lp_space(2, 3), np.ones((6, 3))), family_file)
        run_experiment(cfg)
        assert sorted(calls) == ["load_family", "load_net"]
        trials = [(tmp_path / out / "trials.csv").read_bytes() for out in ("out", "again")]
        assert trials[0] == trials[1]

    def test_xi_N_agreement(self):
        assert resolve_N({"xi": 0.5}, 8) == (12, 0.5)
        assert resolve_N({"N": 12}, 8) == (12, 0.5)
        assert resolve_N({"xi": 0.5, "N": 12}, 8) == (12, 0.5)
        with pytest.raises(ConfigError):
            resolve_N({"xi": 0.5, "N": 11}, 8)
        with pytest.raises(ConfigError):
            resolve_N({}, 8)


class TestRunners:
    def test_exact_norm(self, tmp_path, family_file):
        doc = base_config(tmp_path, family_file, experiment="exact-norm", count=5)
        rep = run_experiment(validate_config(doc))
        assert (tmp_path / "out" / "values.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()
        assert rep.results["points"] == 5

    @pytest.mark.parametrize("formats", [["json"], ["csv"], ["json", "csv"]])
    def test_output_formats(self, tmp_path, family_file, formats):
        doc = base_config(tmp_path, family_file, experiment="xi-sweep", xi_list=[0.5, 1.0])
        doc.update(trials=1, probes={"samples": 10, "descent_steps": 0})
        doc["output"]["formats"] = formats
        rep = run_experiment(validate_config(doc))
        tables = ["aggregate.csv", "trials.csv"] if "csv" in formats else []
        assert sorted(rep.outputs.values()) == tables
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == sorted(tables + (["report.json"] if "json" in formats else []))

    def test_empirical_norm_enumerate_oracle(self, tmp_path, family_file):
        doc = base_config(
            tmp_path, family_file, experiment="empirical-norm", enumerate=True, count=8
        )
        rep = run_experiment(validate_config(doc))
        assert rep.results["max_abs_delta"] <= 1e-9

    def test_distortion_and_determinism(self, tmp_path, family_file):
        doc = base_config(
            tmp_path,
            family_file,
            experiment="distortion",
            xi=0.5,
            trials=4,
            probes={"samples": 30, "descent_steps": 5},
        )
        run_experiment(validate_config(doc))
        first = (tmp_path / "out" / "trials.csv").read_bytes()
        doc2 = dict(doc, threads=2, output={"dir": str(tmp_path / "out2")})
        run_experiment(validate_config(doc2))
        second = (tmp_path / "out2" / "trials.csv").read_bytes()
        assert first == second

    def test_xi_sweep(self, tmp_path, family_file):
        doc = base_config(
            tmp_path,
            family_file,
            experiment="xi-sweep",
            xi_list=[0.5, 1.0],
            trials=3,
            probes={"samples": 20, "descent_steps": 2},
        )
        rep = run_experiment(validate_config(doc))
        agg = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
        assert len(agg) == 3  # header + 2 xi rows
        assert "small_xi_loglog_slope" in rep.results
        # the report names how the trials' seeds were derived
        assert rep.results["seed_scheme"] == nl.distortion.SEED_SCHEME == 2
        assert rep.results["probe_seed"] == nl.seeding.sweep_probe_seed(7)

    def test_distortion_is_the_sweep_of_its_resolved_xi(self, tmp_path, rng):
        fam = nl.make_family(nl.lp_space("inf", 3), rng.standard_normal((12, 3)))
        nl.save_family(fam, tmp_path / "n12.json")
        doc = base_config(tmp_path, str(tmp_path / "n12.json"), trials=3,
                          probes={"samples": 20, "descent_steps": 2})
        # xi = 0.1 at n = 12 gives N = 13, and the run sweeps 13/12 - 1
        one = run_experiment(validate_config(dict(doc, xi=0.1), experiment="distortion"))
        sweep_doc = dict(doc, xi_list=[13 / 12 - 1], output={"dir": str(tmp_path / "sweep")})
        sweep = run_experiment(validate_config(sweep_doc, experiment="xi-sweep"))
        trials = (tmp_path / "out" / "trials.csv").read_bytes()
        assert trials == (tmp_path / "sweep" / "trials.csv").read_bytes()
        assert one.results["summary"] == sweep.results["rows"][0]

    def test_xi_sweep_threads_give_the_same_bytes(self, tmp_path, family_file):
        tables = []
        for threads in (1, 3):
            out = tmp_path / f"t{threads}"
            doc = base_config(tmp_path, family_file, experiment="xi-sweep", xi_list=[0.5, 1.0, 0.5],
                              trials=4, probes={"samples": 20, "descent_steps": 3}, threads=threads,
                              output={"dir": str(out), "formats": ["csv"]})
            run_experiment(validate_config(doc))
            tables.append([(out / name).read_bytes() for name in ("trials.csv", "aggregate.csv")])
        assert tables[0] == tables[1]

    def test_scalar_sweep(self, tmp_path):
        doc = {
            "experiment": "scalar-sweep",
            "n": 5,
            "xi_list": [0.5],
            "trials": 4,
            "probes": {"samples": 16, "descent_steps": 5},
            "master_seed": 3,
            "output": {"dir": str(tmp_path / "out")},
        }
        run_experiment(validate_config(doc))
        header = (tmp_path / "out" / "trials.csv").read_text().splitlines()[0]
        assert header == "xi,n,N,trial,kappa_min,kappa_max,certificate"

    def test_concentration(self, tmp_path, family_file):
        fam = nl.load_family(family_file)
        doc = base_config(
            tmp_path,
            family_file,
            experiment="concentration",
            x=[1.0] * fam.n,
            N_list=[2, 4],
            t=None,
            trials=50,
        )
        d = nl.exact_distribution(nl.NormInstance(fam), np.ones(fam.n))
        doc["t"] = d.expectation * 1.5
        rep = run_experiment(validate_config(doc))
        assert (tmp_path / "out" / "tail.csv").exists()
        assert (tmp_path / "out" / "amplification.csv").exists()
        assert rep.results["expectation"] == pytest.approx(d.expectation)

    def test_net_build_and_reuse(self, tmp_path, family_file):
        doc = base_config(
            tmp_path, family_file, experiment="net-build", theta=0.5, budget=120
        )
        rep = run_experiment(validate_config(doc))
        net_path = tmp_path / "out" / "net.json"
        assert net_path.exists()
        assert rep.results["size"] >= 2
        doc2 = base_config(
            tmp_path,
            family_file,
            experiment="distortion",
            xi=0.5,
            trials=2,
            probes={"samples": 10, "descent_steps": 2, "net_file": str(net_path)},
        )
        doc2["output"] = {"dir": str(tmp_path / "out3")}
        run_experiment(validate_config(doc2))
        rows = (tmp_path / "out3" / "trials.csv").read_text().splitlines()
        assert "certified-small-n" in rows[1] or "heuristic" in rows[1]

    def test_report_echoes_config(self, tmp_path, family_file):
        doc = base_config(tmp_path, family_file, experiment="exact-norm", count=2)
        run_experiment(validate_config(doc))
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["family_file"] == family_file
        assert report["experiment"] == "exact-norm"
        assert "wall_time_s" in report
        assert report["artifact_version"] == nl.__version__

    def test_every_csv_cell_is_text_or_a_plain_number(self, tmp_path, family_file):
        # numpy 2's repr of a numpy float names its type: no cell may carry it
        probes = {"samples": 8, "descent_steps": 2}
        own = {
            "exact-norm": {"count": 3},
            "empirical-norm": {"xi": 0.5, "count": 3},
            "distortion": {"xi": 0.5, "trials": 2, "probes": probes},
            "xi-sweep": {"xi_list": [0.5, 1.0], "trials": 2, "probes": probes},
            "scalar-sweep": {"n": 3, "xi_list": [0.5], "trials": 2, "tau": 0.5, "probes": probes},
            "concentration": {"x": [1.0] * 6, "N_list": [2], "t": 10.0, "trials": 5},
            "net-build": {"theta": 1.0},
        }
        assert sorted(own) == sorted(harness.EXPERIMENTS)
        for experiment, fields in own.items():
            doc = {"master_seed": 1, "output": {"dir": str(tmp_path / experiment)}, **fields}
            if experiment != "scalar-sweep":
                doc["family_file"] = family_file
            run_experiment(validate_config(doc, experiment=experiment))
        paths = sorted(tmp_path.glob("*/*.csv"))
        assert len(paths) == 10
        for path in paths:
            header, *rows = csv.reader(path.read_text().splitlines())
            assert rows
            for row in rows:
                for column, cell in zip(header, row, strict=True):
                    assert "np." not in cell, (path, column, cell)
                    if cell and column not in ("min_method", "max_method", "covering_status"):
                        for v in json.loads(cell) if cell.startswith("[") else [cell]:
                            float(v)


class TestCli:
    def test_end_to_end_and_exit_codes(self, tmp_path, family_file, capsys):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "family_file": family_file,
                "xi": 0.5,
                "trials": 2,
                "probes": {"samples": 10, "descent_steps": 2},
                "master_seed": 5,
                "output": {"dir": str(tmp_path / "cli_out")},
            },
        )
        assert cli_main(["distortion", "--config", cfg]) == 0
        assert (tmp_path / "cli_out" / "trials.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"master_seed": 1})
        assert cli_main(["distortion", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, extra, field",
        [
            ("distortion", {"xi": -0.99, "trials": 1}, "xi"),
            ("xi-sweep", {"xi_list": [0.5, -0.99], "trials": 1}, "xi_list"),
            ("exact-norm", {"space": {"kind": "lp", "p": 0.5, "dim": 3}}, "space/p"),
            ("exact-norm", {"space": {"kind": "lp", "p": 2}}, "space/dim"),
            ("exact-norm", {"space": {"kind": "polytope", "functionals": [[1, 0, 0]]}}, "space/functionals"),
            ("distortion", {"xi": 0.5, "trials": 1, "probes": {"samples": 0}}, "probes/samples"),
            ("xi-sweep", {"xi_list": [0.5], "trials": 1, "probes": {"samples": 0}}, "probes/samples"),
            ("concentration", {"x": [1.0, 2.0]}, "x"),
            ("net-build", {"theta": 0.5, "threads": 4}, "threads"),
            ("concentration", {"x": [1.0] * 6, "threads": 2}, "threads"),
            ("exact-norm", {"threads": 2}, "threads"),
            ("empirical-norm", {"xi": 0.5, "threads": 3}, "threads"),
            ("distortion", {"xi": float("inf"), "trials": 1}, "xi"),
            ("xi-sweep", {"xi_list": [0.5, float("nan")], "trials": 1}, "xi_list"),
            ("net-build", {"theta": float("nan")}, "theta"),
            ("exact-norm", {"space": {"kind": "lp", "p": 2, "dim": 2}, "vectors": [[1, 0], [1]]}, "vectors"),
            ("exact-norm", {"space": {"kind": "lp", "p": 2, "dim": 2}, "vectors": [[1, 0]]}, "random_vectors"),
            ("exact-norm", {"points": [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 2.0]]}, "points"),
            ("concentration", {"x": [1.0] * 6, "N_list": [2], "t": 0.5}, "t"),
            ("distortion", {"xi": 0.5, "trials": 1, "probes": {"restarts": 7}}, "probes/restarts"),
            ("xi-sweep", {"xi_list": [0.5], "trials": 1, "probes": {"restarts": 1}}, "probes/restarts"),
            ("distortion", {"xi": 0.5, "trials": 1, "probes": {"net_file": "not-json.json"}}, "probes/net_file"),
            ("xi-sweep", {"xi_list": [0.5], "trials": 1, "probes": {"net_file": "list.json"}}, "probes/net_file"),
            ("distortion", {"xi": 0.5, "trials": 1, "probes": {"net_file": "not-a-net.json"}}, "probes/net_file"),
            (
                "xi-sweep",
                {"space": {"kind": "lp", "p": "inf", "dim": 2}, "xi_list": [0.5], "trials": 1,
                 "probes": {"net_file": "net-n3.json"}},
                "probes/net_file",
            ),
            *(("exact-norm", {"family_file": name}, "family_file") for name in BAD_FAMILY_FILES),
            *NON_FINITE,
            *PAST_DOUBLE,
            # the amplification check runs only with both N_list and t
            ("concentration", {"x": [1.0] * 6, "N_list": [2, 4]}, "N_list"),
            ("concentration", {"x": [1.0] * 6, "t": 5.0}, "t"),
            ("concentration", {"x": [1.0] * 6, "trials": 50}, "trials"),
        ],
    )
    def test_bad_config_is_a_config_error_naming_the_field(
        self, tmp_path, family_file, capsys, monkeypatch, experiment, extra, field
    ):
        for name, text in {**BAD_NET_FILES, **BAD_FAMILY_FILES}.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        doc = {"master_seed": 1, "output": {"dir": str(tmp_path / "o")}, **extra}
        if "space" in doc:
            doc["random_vectors"] = {"n": 4}
        elif experiment != "scalar-sweep":
            doc.setdefault("family_file", family_file)
        cfg = write_json(tmp_path / "c.json", doc)
        assert cli_main([experiment, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"(field: {field})" in err and "Traceback" not in err

    @pytest.mark.parametrize("experiment, extra, field", NON_FINITE)
    def test_non_finite_number_fails_before_the_run(self, tmp_path, family_file, capsys, experiment, extra, field):
        doc = {"master_seed": 1, "output": {"dir": str(tmp_path / "o")}, **extra}
        if experiment != "scalar-sweep":
            doc["family_file"] = family_file
        assert cli_main([experiment, "--config", write_json(tmp_path / "c.json", doc)]) == 2
        bad = next(v for v in np.ravel(extra[field]) if not np.isfinite(v))
        assert f"config field '{field}' is invalid: {float(bad)!r} is not finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment, extra, field", PAST_DOUBLE)
    def test_number_past_the_doubles_fails_before_the_run(self, tmp_path, family_file, capsys, experiment, extra, field):
        doc = {"master_seed": 1, "output": {"dir": str(tmp_path / "o")}, **extra}
        if "space" not in doc and experiment != "scalar-sweep":
            doc["family_file"] = family_file
        assert cli_main([experiment, "--config", write_json(tmp_path / "c.json", doc)]) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}' is invalid: " in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_integer_fields_take_any_size(self, tmp_path, family_file):
        doc = base_config(tmp_path, family_file, master_seed=HUGE, count=2)
        assert validate_config(doc, experiment="exact-norm").master_seed == HUGE

    def test_integer_past_the_digit_limit_is_a_config_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"master_seed": 1' + "0" * 5000 + "}")
        with pytest.raises(ConfigError, match="digits"):
            load_config(p, experiment="exact-norm")

    def test_infinite_p_is_l_inf(self, tmp_path):
        results = []
        for tag, p in (("tag", "inf"), ("pos", float("inf")), ("neg", float("-inf"))):
            out = tmp_path / tag
            doc = {
                "master_seed": 1,
                "output": {"dir": str(out)},
                "space": {"kind": "lp", "p": p, "dim": 2},
                "vectors": [[1.0, 0.5], [-0.25, 1.0], [0.5, 2.0]],
                "count": 2,
            }
            cfg = write_json(tmp_path / f"{tag}.json", doc)
            assert cli_main(["exact-norm", "--config", cfg]) == 0
            results.append(json.loads((out / "report.json").read_text())["results"])
        assert results[1] == results[0] and results[2] == results[0]

    def test_config_that_is_not_an_object_with_a_seed_override(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", [1, 2])
        assert cli_main(["distortion", "--config", cfg, "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert "(field: <root>)" in err and "Traceback" not in err

    def test_seed_override_changes_results(self, tmp_path, family_file):
        doc = {
            "family_file": family_file,
            "xi": 0.5,
            "trials": 2,
            "probes": {"samples": 10, "descent_steps": 0},
            "master_seed": 5,
            "output": {"dir": str(tmp_path / "a")},
        }
        cfg = write_json(tmp_path / "c.json", doc)
        assert cli_main(["distortion", "--config", cfg]) == 0
        assert (
            cli_main(
                ["distortion", "--config", cfg, "--seed", "6", "--out-dir", str(tmp_path / "b")]
            )
            == 0
        )
        a = (tmp_path / "a" / "trials.csv").read_text()
        b = (tmp_path / "b" / "trials.csv").read_text()
        assert a != b

    def test_threads_env_fallback(self, tmp_path, family_file, monkeypatch):
        monkeypatch.setenv("NORMLAB_THREADS", "2")
        doc = {
            "family_file": family_file,
            "xi": 0.5,
            "trials": 3,
            "probes": {"samples": 10, "descent_steps": 0},
            "master_seed": 5,
            "output": {"dir": str(tmp_path / "env_out")},
        }
        cfg = validate_config(doc, experiment="distortion")
        assert cfg.threads == 2
        run_experiment(cfg)
        assert (tmp_path / "env_out" / "trials.csv").exists()

    @pytest.mark.parametrize("env", ["abc", "2.5", "0"])
    def test_bad_threads_env_is_a_config_error(self, tmp_path, family_file, capsys, monkeypatch, env):
        monkeypatch.setenv("NORMLAB_THREADS", env)
        doc = {"family_file": family_file, "xi": 0.5, "trials": 1, "master_seed": 5,
               "output": {"dir": str(tmp_path / "o")}}
        with pytest.raises(ConfigError, match="NORMLAB_THREADS") as exc:
            validate_config(doc, experiment="distortion")
        assert exc.value.field == "threads"
        assert validate_config({**doc, "threads": 1}, experiment="distortion").threads == 1
        cfg = write_json(tmp_path / "c.json", doc)
        assert cli_main(["distortion", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "(field: threads)" in err and "Traceback" not in err

    def test_threads_env_fallback_is_not_rejected_without_a_pool(self, tmp_path, family_file, monkeypatch):
        monkeypatch.setenv("NORMLAB_THREADS", "2")
        doc = {"family_file": family_file, "theta": 1.0, "master_seed": 5, "output": {"dir": str(tmp_path)}}
        assert validate_config(doc, experiment="net-build").threads == 2
        with pytest.raises(ConfigError, match="threads"):
            validate_config({**doc, "threads": 2}, experiment="net-build")
        assert validate_config({**doc, "threads": 1}, experiment="net-build").threads == 1


def _schema_fields():
    """The schema's properties, and "probes/x" and "caps/x" for theirs."""
    props = json.loads((Path(harness.__file__).parent / "schemas" / "config.schema.json").read_text())["properties"]
    subs = [f"{k}/{sub}" for k in ("probes", "caps") for sub in props[k]["properties"]]
    return props, {*props, *subs}


class TestExperimentRecords:
    def test_the_schema_names_the_records(self):
        props, _ = _schema_fields()
        assert props["experiment"]["enum"] == list(harness.EXPERIMENTS)

    def test_the_records_list_exactly_the_schema_fields(self):
        _, fields = _schema_fields()
        listed = {f for e in harness.EXPERIMENTS.values() for f in (*e.required, *e.reads)}
        assert fields - {"experiment", "master_seed", "output", "threads"} == listed

    def test_the_cli_has_a_subcommand_per_record(self):
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(harness.EXPERIMENTS)

    @pytest.mark.parametrize("experiment", list(UNREAD))
    def test_threads_above_one_is_accepted_exactly_where_the_record_is_pooled(
        self, tmp_path, family_file, experiment
    ):
        own, _ = UNREAD[experiment]
        doc = {"master_seed": 1, "output": {"dir": str(tmp_path)}, "threads": 2, **own}
        if experiment != "scalar-sweep":
            doc["family_file"] = family_file
        if harness.EXPERIMENTS[experiment].pooled:
            assert validate_config(doc, experiment=experiment).threads == 2
        else:
            with pytest.raises(ConfigError, match="runs no trials in a pool") as exc:
                validate_config(doc, experiment=experiment)
            assert exc.value.field == "threads"


# every experiment that enumerates sign patterns: (a valid config's own
# fields on the 6-vector family, the message of its cap at max_enum_n = 5)
ENUMERATING = {
    "exact-norm": ({}, "exact enumeration needs 2^6 sign patterns; cap is n <= 5"),
    "empirical-norm": ({"enumerate": True}, "enumeration matrix for n=6 exceeds cap n <= 5"),
    "distortion": (
        {"xi": 0.5, "trials": 1, "probes": {"samples": 4, "descent_steps": 1}},
        "exact enumeration needs 2^6 sign patterns; cap is n <= 5",
    ),
    "xi-sweep": (
        {"xi_list": [0.5], "trials": 1, "probes": {"samples": 4, "descent_steps": 1}},
        "exact enumeration needs 2^6 sign patterns; cap is n <= 5",
    ),
    "concentration": ({"x": [1.0] * 6}, "exact enumeration needs 2^6 sign patterns; cap is n <= 5"),
    "net-build": ({"theta": 1.0}, "exact enumeration needs 2^6 sign patterns; cap is n <= 5"),
}


class TestCaps:
    @pytest.mark.parametrize("max_enum_n", [5, 6])
    @pytest.mark.parametrize("experiment", sorted(ENUMERATING))
    def test_enumeration_cap_below_n_exits_3(
        self, tmp_path, family_file, capsys, experiment, max_enum_n
    ):
        own, message = ENUMERATING[experiment]
        doc = base_config(tmp_path, family_file, caps={"max_enum_n": max_enum_n}, **own)
        cfg = write_json(tmp_path / "c.json", doc)
        assert cli_main([experiment, "--config", cfg]) == (3 if max_enum_n < 6 else 0)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (message in err) == (max_enum_n < 6)

    @pytest.mark.parametrize("experiment", ["distortion", "xi-sweep"])
    def test_dual_vertex_cap_below_m_marks_the_split_tentative(self, tmp_path, rng, experiment):
        fam = nl.make_family(nl.lp_space(1, 4), rng.standard_normal((5, 4)))
        nl.save_family(fam, tmp_path / "l1.json")
        counts = {}
        for tag, caps in (("default", {}), ("capped", {"max_dual_vertices_m": 3})):
            doc = {
                "family_file": str(tmp_path / "l1.json"),
                "trials": 2,
                "probes": {"samples": 6, "descent_steps": 2},
                "master_seed": 3,
                "caps": caps,
                "output": {"dir": str(tmp_path / tag)},
                **({"xi": 0.5} if experiment == "distortion" else {"xi_list": [0.5]}),
            }
            report = run_experiment(validate_config(doc, experiment=experiment))
            counts[tag] = report.results["uv_tentative_trials"]
        assert counts == {"default": 0, "capped": 2}

    @pytest.mark.parametrize(
        "caps, code, message",
        [
            ({}, 0, None),
            ({"max_dual_vertices_m": 3}, 3, "2^4 dual vertices"),
        ],
    )
    def test_concentration_keeps_both_caps(self, tmp_path, rng, capsys, caps, code, message):
        fam = nl.make_family(nl.lp_space(1, 4), rng.standard_normal((5, 4)))
        nl.save_family(fam, tmp_path / "l1.json")
        doc = {
            "family_file": str(tmp_path / "l1.json"),
            "x": [1.0, -0.5, 2.0, 0.25, 1.5],
            "caps": caps,
            "master_seed": 3,
            "output": {"dir": str(tmp_path / "out")},
        }
        cfg = write_json(tmp_path / "c.json", doc)
        assert cli_main(["concentration", "--config", cfg]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if message is None:
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            assert report["results"]["sigma_method"] == "vertex-enumeration"
        else:
            assert message in err


class TestSigmaMethod:
    def test_sampled_lower_bound_has_its_own_label(self, tmp_path, rng):
        # l_3 has no finite extreme-point description: sigma is only a lower
        # bound, and the report says so
        fam = nl.make_family(nl.lp_space(3, 3), rng.standard_normal((5, 3)))
        nl.save_family(fam, tmp_path / "l3.json")
        doc = {
            "family_file": str(tmp_path / "l3.json"),
            "x": [1.0, -0.5, 2.0, 0.25, 1.5],
            "master_seed": 3,
            "output": {"dir": str(tmp_path / "out")},
        }
        report = run_experiment(validate_config(doc, experiment="concentration"))
        assert report.results["sigma_method"] == "sampled-lower-bound"
        r = nl.sigma(nl.NormInstance(fam), doc["x"])
        assert r.method == "sampled-lower-bound" and r.lower_bound_only
        # l1 past its vertex cap gets the same label; within it, the exact one
        fam1 = nl.make_family(nl.lp_space(1, 3), rng.standard_normal((5, 3)))
        x = np.array(doc["x"])[None]
        capped = weak_variances(nl.NormInstance(fam1, vertex_cap=2), x, lower_bound_beyond_cap=True)
        assert capped[3] == "sampled-lower-bound" and capped[2][0]
        exact = weak_variances(nl.NormInstance(fam1, vertex_cap=3), x, lower_bound_beyond_cap=True)
        assert exact[3] == "vertex-enumeration" and not exact[2][0]
