"""Experiment reports: determinism, schema, CLI exit codes."""

import json
import os
import subprocess
import sys

import pytest

import wonderland
from wonderland.cli import main as cli_main
from wonderland.reports import Context, ExperimentConfig, run_experiment, run_tangency

SMALL = dict(samples=3, seed=11)


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="noop")


def test_bad_sample_count_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="jacobi", samples=0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    # raw64 reduces seeds mod 2^64, so these would replay another seed's stream
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="jacobi", seed=seed)


@pytest.mark.parametrize("n_factors", [0, -1])
def test_factor_count_below_one_rejected(n_factors):
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="diagonal-action", n_factors=n_factors)


@pytest.mark.parametrize("experiment", ["jacobi", "action", "tangency", "glue", "rank1"])
def test_factor_count_rejected_where_unread(experiment):
    """Only the diagonal action reads the factor count: elsewhere a
    non-default count would be recorded over unchanged checks."""
    with pytest.raises(ValueError, match="n_factors"):
        ExperimentConfig(experiment=experiment, n_factors=3)
    assert ExperimentConfig(experiment=experiment, n_factors=2).n_factors == 2


@pytest.mark.parametrize("experiment", ["jacobi", "diagonal-action", "tangency", "saturation"])
def test_degree_rejected_where_unread(experiment):
    """Only the rank-one model reads the degree."""
    with pytest.raises(ValueError, match="degree"):
        ExperimentConfig(experiment=experiment, degree=3)
    assert ExperimentConfig(experiment=experiment, degree=4).degree == 4


def test_options_read_by_all():
    cfg = ExperimentConfig(experiment="all", degree=2, n_factors=3)
    assert (cfg.degree, cfg.n_factors) == (2, 3)
    assert ExperimentConfig(experiment="diagonal-action", n_factors=3).n_factors == 3
    assert ExperimentConfig(experiment="rank1", degree=2).degree == 2


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="rank1", degree=-5)
    assert ExperimentConfig(experiment="rank1", degree=0).degree == 0


def test_grassmann_model_rejected_for_pgl2_only_experiments():
    for name in ("diagonal-action", "tangency", "glue", "all"):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment=name, model="sl2-grassmann")


def test_negative_control_never_degenerate():
    """The tangency control must fail the identity on every seed: a zero
    contraction at its sample would make it report itself failed."""
    ctx = Context()
    for seed in range(1, 41):
        checks = run_tangency(ExperimentConfig(experiment="tangency", samples=1, seed=seed), ctx)
        control = checks[-1]
        assert control.name == "tangency/negative-control"
        assert control.passed and control.residual != "0", seed


def test_negative_control_fails_on_vanishing_field(monkeypatch):
    """A regression that makes the splitting field vanish everywhere must
    show up as a failed control, not as a passing or a hanging one."""
    import wonderland.reports as reports
    from wonderland.poisson import BivectorField
    from wonderland.poly import MultiPoly

    def zero_field(model, chart, split):
        zero = MultiPoly.const(chart.variables, 0)
        return BivectorField(chart, [[zero] * chart.dim for _ in range(chart.dim)])

    monkeypatch.setattr(reports, "splitting_bivector_field", zero_field)
    checks = run_tangency(ExperimentConfig(experiment="tangency", samples=1, seed=1), Context())
    control = checks[-1]
    assert control.name == "tangency/negative-control"
    assert not control.passed and control.residual == "0"


def test_failed_quotient_closure_is_reported(monkeypatch, tmp_path):
    """A mixed field that drops its first wedge breaks bracket closure on
    the quotient: the report is still written, a failing closure check names
    the pair, and the command exits 1."""
    import wonderland.poisson as poisson

    real = poisson.mixed_wedges
    monkeypatch.setattr(poisson, "mixed_wedges", lambda *a, **k: real(*a, **k)[1:])
    out = tmp_path / "report.json"
    argv = ["run", "--experiment", "all", "--samples", "2", "--seed", "42", "--out", str(out)]
    assert cli_main(argv) == 1
    checks = json.loads(out.read_text())["checks"]
    pairs = {
        (c["sample"]["f"], c["sample"]["g"])
        for c in checks
        if c["name"] == "bracket-closure" and not c["pass"]
    }
    assert ("trA2_over_detA", "trAB2_over_dets") in pairs


def test_report_schema_and_summary():
    cfg = ExperimentConfig(experiment="jacobi", **SMALL)
    rep = run_experiment(cfg)
    obj = rep.to_json()
    assert obj["schema"] == 1
    assert obj["summary"]["fail"] == 0
    assert obj["summary"]["pass"] == len(obj["checks"])
    assert obj["config"]["experiment"] == "jacobi"


def test_reports_are_deterministic():
    cfg1 = ExperimentConfig(experiment="all", **SMALL)
    cfg2 = ExperimentConfig(experiment="all", **SMALL)
    r1 = run_experiment(cfg1)
    r2 = run_experiment(cfg2)
    assert r1.serialize() == r2.serialize()
    assert r1.wall_time >= 0  # timing exists but is not serialized
    assert "wall" not in r1.serialize()


def test_every_experiment_passes():
    for name in (
        "jacobi",
        "action",
        "diagonal-action",
        "multiplicativity",
        "tangency",
        "glue",
        "saturation",
        "rank1",
        "f2-demo",
    ):
        rep = run_experiment(ExperimentConfig(experiment=name, **SMALL))
        assert rep.failed == 0, name
        assert rep.passed >= 1


def test_grassmann_jacobi_model():
    cfg = ExperimentConfig(experiment="jacobi", model="sl2-grassmann", **SMALL)
    rep = run_experiment(cfg)
    assert rep.failed == 0 and rep.passed == 3


def test_grassmann_action_model():
    cfg = ExperimentConfig(experiment="action", model="sl2-grassmann", **SMALL)
    rep = run_experiment(cfg)
    assert rep.failed == 0 and rep.passed == 3
    assert all(c.name == "poisson-action-grassmann" for c in rep.checks)


class TestCli:
    def test_lie_build(self, capsys):
        assert cli_main(["lie", "build", "--n", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["dim"] == 3

    def test_lie_splitting_standard(self, capsys):
        assert cli_main(["lie", "splitting"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["axioms"] == "verified"
        assert len(obj["x_basis"]) == 3

    def test_lie_splitting_user_l2(self, tmp_path, capsys):
        """The JSON interface accepts and validates a user complement."""
        assert cli_main(["lie", "splitting"]) == 0
        ref = json.loads(capsys.readouterr().out)
        payload = tmp_path / "l2.json"
        payload.write_text(json.dumps({"l2_basis": ref["y_basis"]}))
        assert cli_main(["lie", "splitting", "--l2", str(payload)]) == 0
        again = json.loads(capsys.readouterr().out)
        assert again["y_basis"] == ref["y_basis"]

    def test_lie_splitting_rejects_bad_l2(self, tmp_path):
        payload = tmp_path / "l2.json"
        # the diagonal cannot be a complement of itself
        payload.write_text(
            json.dumps(
                {
                    "l2_basis": [
                        [1, 0, 0, 1, 0, 0],
                        [0, 1, 0, 0, 1, 0],
                        [0, 0, 1, 0, 0, 1],
                    ]
                }
            )
        )
        assert cli_main(["lie", "splitting", "--l2", str(payload)]) == 2

    @pytest.mark.parametrize(
        "case", ["extra row", "too few rows", "short rows", "long rows"]
    )
    def test_lie_splitting_rejects_malformed_l2(self, tmp_path, capsys, case):
        """The complement must be exactly dim rows of 2 dim entries: a valid
        l2 with one row too many, one row too few or rows of the wrong
        length is a usage error, not a verified splitting or a traceback."""
        assert cli_main(["lie", "splitting"]) == 0
        rows = json.loads(capsys.readouterr().out)["y_basis"]
        rows = {
            "extra row": rows + [rows[0]],
            "too few rows": rows[:-1],
            "short rows": [row[:-1] for row in rows],
            "long rows": [row + ["0"] for row in rows],
        }[case]
        payload = tmp_path / "l2.json"
        payload.write_text(json.dumps({"l2_basis": rows}))
        assert cli_main(["lie", "splitting", "--l2", str(payload)]) == 2
        assert capsys.readouterr().out == ""

    def test_lie_splitting_l2_without_key_exit_code(self, tmp_path, capsys):
        payload = tmp_path / "l2.json"
        payload.write_text(json.dumps({"basis": [[1, 0, 0, 0, 0, 0]]}))
        assert cli_main(["lie", "splitting", "--l2", str(payload)]) == 2
        assert "l2_basis" in capsys.readouterr().err

    BAD_2X2 = '[[1,"1/0"],[0,1]]'
    BAD_INPUT = {
        "charvar trace --A": ["charvar", "trace", "--A", BAD_2X2, "--B", "[[1,0],[0,1]]"],
        "orbit-dim pgl2": ["geom", "orbit-dim", "--point", BAD_2X2],
        "orbit-dim grassmann": [
            "geom", "orbit-dim", "--model", "grassmann",
            "--point", '[[1,0,0,"1/0",0,0],[0,1,0,0,1,0],[0,0,1,0,0,1]]',
        ],
        "charvar stratify --tuple": ["charvar", "stratify", "--tuple", "[%s]" % BAD_2X2],
        "sweep entry": ["geom", "boundary", "--sweep", "{sweep}"],
        "l2 entry": ["lie", "splitting", "--l2", "{l2}"],
        "missing sweep": ["geom", "boundary", "--sweep", "{missing}"],
        "directory sweep": ["geom", "boundary", "--sweep", "{dir}"],
        "missing l2": ["lie", "splitting", "--l2", "{missing}"],
        "directory l2": ["lie", "splitting", "--l2", "{dir}"],
    }

    @pytest.mark.parametrize("case", list(BAD_INPUT))
    def test_bad_input_is_a_usage_error(self, tmp_path, capsys, case):
        """A "1/0" entry in a matrix option or an input file, and an input
        file that is missing or a directory, exit 2 with an error line and
        no traceback."""
        (tmp_path / "sweep.json").write_text("[%s]" % self.BAD_2X2)
        (tmp_path / "l2.json").write_text('{"l2_basis": [[1,"1/0",0,0,0,0]]}')
        paths = {
            "sweep": tmp_path / "sweep.json",
            "l2": tmp_path / "l2.json",
            "missing": tmp_path / "missing.json",
            "dir": tmp_path,
        }
        argv = [a.format(**paths) for a in self.BAD_INPUT[case]]
        assert cli_main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ")

    def test_geom_orbit_dim(self, capsys):
        code = cli_main(
            ["geom", "orbit-dim", "--model", "pgl2", "--point", "[[1,0],[0,1]]"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["orbit_dimension"] == 3

    def test_geom_orbit_dim_span_rows(self, capsys):
        rows = "[[1,0,0,1,0,0],[0,1,0,0,1,0],[0,0,1,0,0,1]]"
        code = cli_main(["geom", "orbit-dim", "--model", "grassmann", "--point", rows])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["orbit_dimension"] == 3

    def test_geom_orbit_dim_boundary_point(self, capsys):
        code = cli_main(
            ["geom", "orbit-dim", "--model", "pgl2", "--point", "[[1,0],[0,0]]"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["orbit_dimension"] == 2

    def test_geom_boundary_sweep(self, tmp_path, capsys):
        sweep = tmp_path / "pts.json"
        sweep.write_text(json.dumps([[[1, 0], [0, 1]], [[1, 0], [0, 0]]]))
        assert cli_main(["geom", "boundary", "--sweep", str(sweep)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["boundary"] for r in rows] == [False, True]
        assert rows[1]["segre"] == [[1, 0], [1, 0]]

    def test_invariants_kernel(self, capsys):
        assert cli_main(["invariants", "--action", "conj-m2", "--degree", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["dimension"] == 2

    def test_invariants_multidegree(self, capsys):
        code = cli_main(
            ["invariants", "--action", "conj-m2x2", "--multidegree", "1,1"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["dimension"] == 2 and obj["degree"] == [1, 1]

    def test_invariants_express(self, capsys):
        code = cli_main(
            ["invariants", "express", "--bound", "2"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert [[0, 0, 0], "-2"] in obj["coefficients"]
        assert [[0, 0, 2], "1"] in obj["coefficients"]

    def test_git_ring(self, capsys):
        assert cli_main(["git", "ring", "--r", "1", "--degree", "3"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert {tuple(d["degree"]): d["dimension"] for d in obj["dimensions"]}[(2,)] == 2

    def test_git_ring_two_factors_reaches_degree_bound(self, capsys):
        assert cli_main(["git", "ring", "--r", "2", "--degree", "3"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["degree_bound"] == 3
        dims = {tuple(d["degree"]): d["dimension"] for d in obj["dimensions"]}
        assert set(dims) == {(i, j) for i in range(4) for j in range(4)}
        assert dims[(3, 3)] == 10

    def test_charvar_trace(self, capsys):
        code = cli_main(
            ["charvar", "trace", "--A", "[[1,1],[0,1]]", "--B", "[[1,0],[1,1]]"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["trace_point"] == ["2", "2", "3"]

    def test_charvar_stratify(self, capsys):
        code = cli_main(
            ["charvar", "stratify", "--tuple", "[[[1,0],[0,0]],[[1,0],[0,1]]]"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["signature"] == [0]

    def test_charvar_rank1(self, capsys):
        assert cli_main(["charvar", "rank1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["dims_match"] is True

    def test_run_writes_deterministic_report(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            code = cli_main(
                [
                    "run",
                    "--experiment",
                    "rank1",
                    "--samples",
                    "3",
                    "--seed",
                    "5",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        obj = json.loads(out1.read_text())
        assert obj["summary"]["fail"] == 0

    def test_poisson_subcommand(self, capsys):
        code = cli_main(["poisson", "jacobi", "--samples", "2", "--seed", "3"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["summary"]["fail"] == 0

    def test_model_alias_pgl2(self, capsys):
        code = cli_main(
            ["poisson", "jacobi", "--model", "pgl2", "--samples", "2", "--seed", "3"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["config"]["model"] == "pgl2-projective"

    def test_poisson_action_subcommand(self, capsys):
        code = cli_main(["poisson", "action", "--n", "2", "--seed", "7", "--samples", "2"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["config"]["experiment"] == "diagonal-action"
        assert obj["summary"]["fail"] == 0

    def test_git_glue_subcommand(self, capsys):
        code = cli_main(["git", "glue", "--samples", "2", "--seed", "5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["summary"]["fail"] == 0

    def test_git_saturation_subcommand(self, capsys):
        code = cli_main(["git", "saturation", "--seed", "3", "--samples", "4"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["summary"]["fail"] == 0

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_invariants_express_seed_outside_64_bits_exit_code(self, capsys, seed):
        # -1 would replay the stream of seed 2^64 - 1, since raw64 reduces mod 2^64
        assert cli_main(["invariants", "express", "--seed", str(seed)]) == 2
        assert capsys.readouterr().out == ""

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--experiment"])
        assert exc.value.code == 2

    def test_unknown_experiment_exit_code(self, capsys):
        assert cli_main(["run", "--experiment", "noop"]) == 2

    def test_malformed_point_json(self, capsys):
        # JSON decode errors are ValueErrors, reported as usage errors
        code = cli_main(
            ["geom", "orbit-dim", "--model", "pgl2", "--point", "not json"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "rows",
        [
            "[[1,0,0,1,0,0]]",
            "[[1,0,0],[0,1,0],[0,0,1]]",
            "5",
            "[1,0,0,1,0,0]",
            "[[1,0,0,1,0,0],5,[0,0,1,0,0,1]]",
        ],
    )
    def test_orbit_dim_span_of_wrong_shape_exit_code(self, capsys, rows):
        code = cli_main(["geom", "orbit-dim", "--model", "grassmann", "--point", rows])
        assert code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--A", "5", "--B", "[[1,0],[0,1]]"],
            ["--A", "[1,2]", "--B", "[[1,0],[0,1]]"],
            ["--A", "[[1,0],[0,1]]", "--B", "[[1,2],[3]]"],
            ["--A", "[[1,0,0],[0,1,0],[0,0,1]]", "--B", "[[1,0,0],[0,1,0],[0,0,1]]"],
        ],
    )
    def test_charvar_trace_of_non_2x2_matrices_exit_code(self, capsys, argv):
        assert cli_main(["charvar", "trace"] + argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "2x2" in err

    @pytest.mark.parametrize("point", ["5", "[1,0,0,1]", "[[1,0],[0,1],[1,1]]"])
    def test_orbit_dim_pgl2_point_of_wrong_shape_exit_code(self, capsys, point):
        assert cli_main(["geom", "orbit-dim", "--model", "pgl2", "--point", point]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "2x2" in err

    def test_orbit_dim_non_lagrangian_span_exit_code(self, capsys):
        rows = "[[1,0,0,0,0,0],[0,1,0,0,0,0],[0,0,1,0,0,0]]"
        code = cli_main(["geom", "orbit-dim", "--model", "grassmann", "--point", rows])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_express_negative_bound_exit_code(self, capsys):
        assert cli_main(["invariants", "express", "--bound", "-1"]) == 2
        assert capsys.readouterr().out == ""

    def test_invariants_without_action_is_usage_error(self, capsys):
        assert cli_main(["invariants"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--action" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--action", "conj-m2x2"], "--multidegree"),
            (["--action", "conj-m2x2", "--multidegree", "1,1", "--degree", "2"], "--degree"),
            (["--action", "conj-m2", "--multidegree", "1,1"], "--multidegree"),
        ],
    )
    def test_invariants_degree_option_mismatch_is_usage_error(self, capsys, argv, flag):
        assert cli_main(["invariants"] + argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and flag in err

    def test_invariants_degree_options_still_answer(self, capsys):
        assert cli_main(["invariants", "--action", "conj-m2"]) == 0
        assert json.loads(capsys.readouterr().out)["degree"] == [1]
        assert cli_main(["invariants", "--action", "conj-m2x2", "--multidegree", "1,1"]) == 0
        assert json.loads(capsys.readouterr().out)["degree"] == [1, 1]

    def test_bad_sample_count_via_cli(self, capsys):
        assert cli_main(["run", "--experiment", "jacobi", "--samples", "0"]) == 2

    def test_negative_degree_exit_code(self, capsys):
        assert cli_main(["invariants", "--action", "conj-m2", "--degree", "-1"]) == 2

    def test_empty_stratify_tuple_exit_code(self, capsys):
        assert cli_main(["charvar", "stratify", "--tuple", "[]"]) == 2

    @pytest.mark.parametrize(
        "text", ["[[1,2],[3]]", "[[1,2],[3,4]]", "[[[1,0],[0]]]", "[[[1,0,0],[0,1,0]]]", "{}", "3"]
    )
    def test_stratify_tuple_of_non_2x2_matrices_exit_code(self, capsys, text):
        assert cli_main(["charvar", "stratify", "--tuple", text]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "2x2 matrices" in err

    @pytest.mark.parametrize("text", ["[[1,2],[3,4]]", "[[[1,0],[0]]]", "{}"])
    def test_boundary_sweep_of_non_2x2_matrices_exit_code(self, capsys, tmp_path, text):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(text)
        assert cli_main(["geom", "boundary", "--sweep", str(sweep)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "2x2 matrices" in err

    def test_unknown_glue_charts_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["git", "glue", "--charts", "nonsense", "--samples", "2"])
        assert exc.value.code == 2

    def test_seed_outside_64_bits_exit_code(self, capsys):
        code = cli_main(["run", "--experiment", "jacobi", "--samples", "1", "--seed", "-1"])
        assert code == 2

    def test_grassmann_model_without_runner_exit_code(self, capsys):
        code = cli_main(
            ["run", "--experiment", "diagonal-action", "--model", "sl2-grassmann", "--samples", "1"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--experiment", "diagonal-action", "--n", "0"],
            ["run", "--experiment", "diagonal-action", "--n", "-1"],
            ["poisson", "action", "--n", "0"],
        ],
    )
    def test_factor_count_below_one_exit_code(self, capsys, argv):
        assert cli_main(argv + ["--samples", "1"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--experiment", "jacobi", "--model", "grassmann", "--n", "7"],
            ["run", "--experiment", "tangency", "--n", "3"],
            ["run", "--experiment", "jacobi", "--degree", "3"],
            ["run", "--experiment", "glue", "--degree", "6"],
        ],
    )
    def test_unread_option_exit_code(self, capsys, argv):
        assert cli_main(argv + ["--samples", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "does not read" in err

    @pytest.mark.parametrize("name", ["jacobi", "tangency"])
    def test_poisson_factor_count_only_on_action(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            cli_main(["poisson", name, "--n", "3", "--samples", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_negative_rank1_degree_exit_code(self, capsys):
        assert cli_main(["run", "--experiment", "rank1", "--degree", "-5"]) == 2
        assert capsys.readouterr().out == ""

    def test_negative_ring_degree_exit_code(self, capsys):
        assert cli_main(["git", "ring", "--degree", "-1"]) == 2
        assert capsys.readouterr().out == ""

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0


def test_entry_point_process():
    """The installed console script behaves like the module CLI.  The child
    imports the package this test imported, however pytest found it."""
    src = os.path.dirname(os.path.dirname(wonderland.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "wonderland.cli", "charvar", "rank1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dims_match"] is True
