"""Command-line behavior: outputs, exit codes, determinism, round-trips."""

import json

import numpy as np
import pytest

from tcpkit import (
    RunConfig,
    Tensor,
    TcpInstance,
    identity_tensor,
    save_tensor,
)
from tcpkit.cli import (
    EXIT_BAD_INPUT,
    EXIT_BOUND_VIOLATION,
    EXIT_INTERNAL,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
)


@pytest.fixture()
def ident32(tmp_path):
    path = tmp_path / "ident32.json"
    save_tensor(identity_tensor(3, 2), path)
    return str(path)


@pytest.fixture()
def ident42(tmp_path):
    path = tmp_path / "ident42.json"
    save_tensor(identity_tensor(4, 2), path)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_identity(capsys, ident32):
    code, out, _ = run_cli(capsys, ["classify", ident32])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["result"]["verdict"] == "strictly_semi_positive"
    assert payload["result"]["beta"]["value"] == pytest.approx(1.0, abs=1e-6)
    assert payload["config"]["seed"] == 0


def test_classify_text_format(capsys, ident32):
    code, out, _ = run_cli(capsys, ["classify", ident32, "--format", "text"])
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("strictly_semi_positive, beta=")


def test_classify_counterexample_output(capsys, tmp_path):
    path = tmp_path / "neg.json"
    save_tensor(Tensor(np.array([[0.0, -1.0], [-1.0, 0.0]])), path)
    code, out, _ = run_cli(capsys, ["classify", str(path)])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["verdict"] == "not_semi_positive"
    assert result["counterexample"] == pytest.approx([1.0, 1.0], abs=1e-6)


def test_beta_command(capsys, ident32):
    code, out, _ = run_cli(capsys, ["beta", ident32])
    assert code == EXIT_OK
    assert json.loads(out)["result"]["value"] == pytest.approx(1.0, abs=1e-6)


def test_eigen_command_pareto_z(capsys, ident42):
    code, out, _ = run_cli(capsys, ["eigen", ident42, "--kind", "pareto_z", "--starts", "8"])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    values = sorted({round(r["value"], 6) for r in result["records"]})
    assert values == pytest.approx([0.5, 1.0])
    assert result["mu_min_pareto_z"] == pytest.approx(0.5, abs=1e-8)
    # supports serialize 1-based
    assert all(min(r["support"]) >= 1 for r in result["records"])


def test_eigen_command_delta(capsys, ident42):
    code, out, _ = run_cli(capsys, ["eigen", ident42, "--kind", "delta_z_plus", "--starts", "8"])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["delta_z_plus"] == pytest.approx(0.5, abs=1e-8)
    assert result["records"]


def test_verify_bounds_symmetric_matrix_family(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "verify-bounds", "--family", "matrix_m2", "--m", "2", "--n", "2",
            "--count", "2", "--seed", "3", "--symmetric",
        ],
    )
    assert code == EXIT_OK
    assert json.loads(out)["result"]["violations"] == 0


def test_norms_command(capsys, ident32):
    code, out, _ = run_cli(capsys, ["norms", ident32, "--starts", "4"])
    assert code == EXIT_OK
    reports = json.loads(out)["result"]["reports"]
    inf_row = next(r for r in reports if r["p"] == "inf" and r["op"] == "T")
    assert inf_row["empirical_norm"] == pytest.approx(1.0, abs=1e-6)
    assert inf_row["closed_form_bound"] == pytest.approx(1.0)


def test_solve_command(capsys, tmp_path):
    inst = TcpInstance(identity_tensor(3, 2), np.array([-8.0, 1.0]))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_dict()))
    code, out, _ = run_cli(capsys, ["solve", str(path)])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["status"] == "ok"
    assert result["solutions"][0]["x"] == pytest.approx([2.828427124746, 0.0], abs=1e-6)


def test_solve_no_solution_is_status_not_error(capsys, tmp_path):
    inst = TcpInstance(Tensor(np.array([[0.0, -1.0], [-1.0, 0.0]])), np.array([-1.0, -1.0]))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_dict()))
    with pytest.warns(UserWarning):
        code, out, _ = run_cli(capsys, ["solve", str(path), "--method", "enumeration"])
    assert code == EXIT_OK
    assert json.loads(out)["result"]["status"] == "no_solutions_found"


def test_malformed_tensor_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 2, "n": 2, "entries": [{"idx": [0, 1], "v": 1.0}]}')
    code, _, err = run_cli(capsys, ["classify", str(bad)])
    assert code == EXIT_BAD_INPUT
    assert "error" in err


@pytest.mark.parametrize("flag,value", [("--starts", "-1"), ("--grid", "-1"), ("--starts", "2.5")])
def test_negative_budget_flag_exits_2_naming_the_flag(capsys, ident32, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["beta", ident32, flag, value])
    assert exc.value.code == EXIT_BAD_INPUT
    assert f"argument {flag}: must be an integer >= 0, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-2", "nan", "inf", "-inf", "abc", ""])
def test_tol_outside_finite_nonnegative_exits_2_naming_the_flag(capsys, tmp_path, value):
    # beta of diag(-1, -1) is -1: a tol of -2, nan or inf would flip or blur the verdict
    path = tmp_path / "neg.json"
    save_tensor(Tensor(-identity_tensor(3, 2).data), path)
    with pytest.raises(SystemExit) as exc:
        main(["classify", str(path), f"--tol={value}"])
    assert exc.value.code == EXIT_BAD_INPUT
    assert f"argument --tol: must be a finite number >= 0, got '{value}'" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, ["classify", str(path), "--tol=0"])
    assert code == EXIT_OK and json.loads(out)["result"]["verdict"] == "not_semi_positive"


@pytest.mark.parametrize("field,value", [
    ("symmetric", "false"), ("symmetric", 1), ("m", 3.9), ("m", True), ("n", "2"),
])
def test_loosely_typed_tensor_file_exits_2(capsys, tmp_path, field, value):
    obj = {"m": 3, "n": 2, "symmetric": False,
           "entries": [{"idx": [1, 1, 2], "v": 1.0}, {"idx": [2, 2, 2], "v": 1.0}]}
    obj[field] = value
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, ["classify", str(path)])
    assert code == EXIT_BAD_INPUT and err.startswith("error: ")


@pytest.mark.parametrize("q,v", [("12", 1.0), ([-1.0, 2.0], True), ([-1.0, 2.0], "2.5")])
def test_loosely_typed_instance_values_exit_2(capsys, tmp_path, q, v):
    tensor = {"m": 3, "n": 2, "entries": [{"idx": [1, 1, 1], "v": v}, {"idx": [2, 2, 2], "v": 1.0}]}
    path = tmp_path / "loose.instance.json"
    path.write_text(json.dumps({"tensor": tensor, "q": q}))
    code, _, err = run_cli(capsys, ["solve", str(path)])
    assert code == EXIT_BAD_INPUT and err.startswith("error: ")


def test_negative_count_exits_2_and_zero_starts_run(capsys, ident32):
    with pytest.raises(SystemExit) as exc:
        main(["verify-bounds", "--family", "matrix_m2", "--m", "2", "--n", "2", "--count", "-1"])
    assert exc.value.code == EXIT_BAD_INPUT
    assert "argument --count" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, ["beta", ident32, "--starts", "0"])
    assert code == EXIT_OK and json.loads(out)["config"]["starts"] == 0


def test_symmetric_flag_outside_the_matrix_family_exits_2(capsys):
    argv = ["verify-bounds", "--family", "diag_dominant", "--m", "2", "--n", "2", "--symmetric"]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_BAD_INPUT and out == "" and "symmetric" in err


def test_overflowing_tensor_exits_2(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"m": 3, "n": 2, "entries": [{"idx": [1, 1, 1], "v": 1.5e308},
                                                            {"idx": [2, 2, 2], "v": 1.0}]}))
    code, _, err = run_cli(capsys, ["eigen", str(path), "--kind", "h_plus"])
    assert code == EXIT_BAD_INPUT and "overflows" in err


def test_missing_file_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["classify", "/nonexistent/tensor.json"])
    assert code == EXIT_BAD_INPUT


def test_nonconvergence_exits_3(capsys, tmp_path, monkeypatch):
    from tcpkit import NonConvergenceError
    import tcpkit.cli as cli_mod

    inst = TcpInstance(identity_tensor(3, 2), np.array([-1.0, 0.0]))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_dict()))

    def failing(inst, cfg):
        raise NonConvergenceError("stalled", best_merit=0.1, iterations=10)

    monkeypatch.setattr(cli_mod, "solve_iterative", failing)
    code, _, err = run_cli(capsys, ["solve", str(path), "--method", "iterative"])
    assert code == EXIT_NO_CONVERGENCE
    assert "stalled" in err


def test_verify_bounds_writes_reports(capsys, tmp_path):
    report = tmp_path / "r.jsonl"
    csv_path = tmp_path / "r.csv"
    code, out, _ = run_cli(
        capsys,
        [
            "verify-bounds", "--family", "diag_dominant", "--m", "2", "--n", "2",
            "--count", "3", "--seed", "4",
            "--report", str(report), "--csv", str(csv_path),
        ],
    )
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["violations"] == 0
    lines = report.read_text().strip().split("\n")
    assert len(lines) == result["reports"]
    assert csv_path.read_text().startswith("instance_id,")


def test_verify_bounds_violation_exits_4(capsys, tmp_path, monkeypatch):
    import tcpkit.cli as cli_mod
    from tcpkit import BoundViolationError, BoundsReport, BoundEntry

    inst = TcpInstance(identity_tensor(3, 2), np.array([-1.0, 0.0]))
    report = BoundsReport(
        "fake-0000", 0,
        [BoundEntry("inf_general", "inf", lower=2.0, upper=3.0, achieved=1.0, passed=False)],
        {}, passed=False,
    )

    def failing(spec, count, cfg):
        raise BoundViolationError(inst, report)

    monkeypatch.setattr(cli_mod, "verify_bounds", failing)
    out_file = tmp_path / "violation.json"
    code, out, err = run_cli(
        capsys,
        [
            "verify-bounds", "--family", "diag_dominant", "--m", "2", "--n", "2",
            "--count", "1", "--violation-out", str(out_file),
        ],
    )
    assert code == EXIT_BOUND_VIOLATION and out == ""
    payload = json.loads(out_file.read_text())
    assert payload["report"]["instance_id"] == "fake-0000"
    assert str(out_file) in err


def test_margin_above_least_pareto_value_exits_5(capsys, monkeypatch):
    # an internal invariant failure is neither malformed input nor a bound violation
    import tcpkit.bounds as bounds_mod

    monkeypatch.setattr(bounds_mod, "min_pareto_h", lambda A, cfg: 1e-3)
    code, out, err = run_cli(
        capsys,
        [
            "verify-bounds", "--family", "matrix_m2", "--m", "2", "--n", "2",
            "--count", "1", "--symmetric",
        ],
    )
    assert code == EXIT_INTERNAL and out == ""
    assert err.startswith("error: internal invariant failed") and "Pareto H" in err


def test_empty_pareto_enumeration_exits_5(capsys, monkeypatch):
    # a symmetric tensor always has a Pareto H value: finding none is an internal miss
    import tcpkit.bounds as bounds_mod

    monkeypatch.setattr(bounds_mod, "pareto_h_eigenvalues", lambda A, cfg: [])
    code, out, err = run_cli(
        capsys,
        ["verify-bounds", "--family", "random_symmetric_copositive", "--m", "3", "--n", "3", "--count", "1"],
    )
    assert code == EXIT_INTERNAL and out == ""
    assert err.startswith("error: no Pareto value found")


def test_failed_generator_gate_exits_5(capsys, monkeypatch):
    import tcpkit.bounds as bounds_mod

    monkeypatch.setattr(bounds_mod, "_draw_tensor", lambda spec, rng: identity_tensor(2, 2).scale(-1.0))
    code, _, err = run_cli(capsys, ["verify-bounds", "--family", "matrix_m2", "--m", "2", "--n", "2"])
    assert code == EXIT_INTERNAL
    assert err.startswith("error: generator matrix_m2 failed")


def test_verify_bounds_seeded_runs_identical(capsys):
    argv = [
        "verify-bounds", "--family", "random_symmetric_copositive",
        "--m", "3", "--n", "2", "--count", "3", "--seed", "11", "--starts", "8",
    ]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_round_trip_tensor_identical_results(capsys, tmp_path, ident32):
    from tcpkit import load_tensor

    reloaded = tmp_path / "again.json"
    save_tensor(load_tensor(ident32), reloaded)
    code1, out1, _ = run_cli(capsys, ["classify", ident32])
    code2, out2, _ = run_cli(capsys, ["classify", str(reloaded)])
    assert out1 == out2


def test_config_echoed_for_provenance(capsys, ident32):
    code, out, _ = run_cli(capsys, ["beta", ident32, "--seed", "42", "--grid", "9"])
    cfgd = json.loads(out)["config"]
    assert cfgd["seed"] == 42
    assert cfgd["grid"] == 9
    assert "tol" in cfgd


def test_config_echo_has_exactly_the_caller_values(capsys, ident32):
    assert set(RunConfig().to_dict()) == {"grid", "seed", "starts", "tol"}
    code, out, _ = run_cli(capsys, ["beta", ident32, "--starts", "3", "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(out)["config"] == RunConfig(starts=3).to_dict()


def test_violation_out_in_a_missing_directory_exits_2(capsys, tmp_path, monkeypatch):
    import tcpkit.cli as cli_mod
    from tcpkit import BoundViolationError, BoundsReport

    inst = TcpInstance(identity_tensor(3, 2), np.array([-1.0, 0.0]))

    def failing(spec, count, cfg):
        raise BoundViolationError(inst, BoundsReport("fake-0000", 0, [], {}, passed=False))

    monkeypatch.setattr(cli_mod, "verify_bounds", failing)
    argv = ["verify-bounds", "--family", "matrix_m2", "--m", "2", "--n", "2",
            "--violation-out", str(tmp_path / "missing" / "violation.json")]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_BAD_INPUT and out == "" and err.startswith("error: ")


# one argv per command, all with the same config flags; a cheap input each
CONFIG_FLAGS = ["--grid", "5", "--starts", "4", "--seed", "5"]
COMMAND_ARGS = {
    "classify": ["TENSOR"],
    "beta": ["TENSOR"],
    "eigen": ["TENSOR", "--kind", "h_plus"],
    "norms": ["TENSOR"],
    "solve": ["INSTANCE"],
    "verify-bounds": ["--family", "matrix_m2", "--m", "2", "--n", "2", "--count", "1"],
}


def command_argv(command, tmp_path, ident32):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(TcpInstance(identity_tensor(3, 2), np.array([-8.0, 1.0])).to_dict()))
    files = {"TENSOR": ident32, "INSTANCE": str(inst)}
    return [command] + [files.get(a, a) for a in COMMAND_ARGS[command]] + CONFIG_FLAGS


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_every_command_prints_one_payload_and_some_text(capsys, tmp_path, ident32, command):
    argv = command_argv(command, tmp_path, ident32)
    code, out, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload) == {"command", "config", "result"}
    assert payload["command"] == command
    assert payload["config"] == RunConfig(grid=5, starts=4, seed=5).to_dict()
    code, out, _ = run_cli(capsys, argv + ["--format", "text"])
    assert code == EXIT_OK and out.splitlines()


@pytest.mark.parametrize("command", ["classify", "beta", "eigen", "solve"])
def test_csv_without_a_table_is_one_row_per_sorted_result_key(capsys, tmp_path, ident32, command):
    argv = command_argv(command, tmp_path, ident32)
    result = json.loads(run_cli(capsys, argv)[1])["result"]
    code, out, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code == EXIT_OK
    header, *rows = out.splitlines()
    assert header == "key,value"
    assert [row.split(",", 1)[0] for row in rows] == sorted(result)
    assert [json.loads(row.split(",", 1)[1]) for row in rows] == [result[k] for k in sorted(result)]
