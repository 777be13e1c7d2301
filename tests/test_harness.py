import json

import jsonschema
import numpy as np
import pytest

import normlab as nl
from normlab.cli import main as cli_main
from normlab.errors import ConfigError
from normlab.harness import load_config, resolve_N, run_experiment, validate_config


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@pytest.fixture
def family_file(tmp_path, rng):
    fam = nl.make_family(nl.lp_space("inf", 3), rng.standard_normal((6, 3)))
    path = tmp_path / "family.json"
    nl.save_family(fam, path)
    return str(path)


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

    def test_schema_is_checked_once(self, tmp_path, family_file, monkeypatch):
        calls = []
        cls = jsonschema.Draft202012Validator
        check = cls.check_schema
        monkeypatch.setattr(
            cls, "check_schema", lambda schema, **kw: calls.append(1) or check(schema, **kw)
        )
        doc = base_config(tmp_path, family_file, trials=2, xi=0.5)
        for _ in range(3):
            validate_config(doc, experiment="distortion")
        assert len(calls) <= 1

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
        d = nl.exact_distribution(fam, np.ones(fam.n))
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
        ],
    )
    def test_bad_config_is_a_config_error_naming_the_field(
        self, tmp_path, family_file, capsys, experiment, extra, field
    ):
        doc = {"master_seed": 1, "output": {"dir": str(tmp_path / "o")}, **extra}
        if "space" in doc:
            doc["random_vectors"] = {"n": 4}
        else:
            doc["family_file"] = family_file
        cfg = write_json(tmp_path / "c.json", doc)
        assert cli_main([experiment, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"(field: {field})" in err and "Traceback" not in err

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

    def test_threads_env_fallback_is_not_rejected_without_a_pool(self, tmp_path, family_file, monkeypatch):
        monkeypatch.setenv("NORMLAB_THREADS", "2")
        doc = {"family_file": family_file, "theta": 1.0, "master_seed": 5, "output": {"dir": str(tmp_path)}}
        assert validate_config(doc, experiment="net-build").threads == 2
        with pytest.raises(ConfigError, match="threads"):
            validate_config({**doc, "threads": 2}, experiment="net-build")
        assert validate_config({**doc, "threads": 1}, experiment="net-build").threads == 1


class TestCaps:
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
