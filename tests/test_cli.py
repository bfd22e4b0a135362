import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stieltjes
from stieltjes import ApproximationError, IntegralKind, Interval, cli

STEP_G = "g=step[0,1]{nodes:0,0.5,1; at:0,0,1; on:0,1}"      # chi_(0.5,1]
AFFINE_F = "f=affine[0,1]{slope:1}"
PAIR = f"{AFFINE_F} {STEP_G}"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def test_integrate_json_report(capsys):
    code, report, _ = run_json(capsys, ["integrate", "--json", "kind=D", PAIR])
    assert code == 0
    assert report == {"command": "integrate", "kind": "D", "value": 0.5,
                      "error_bound": 0, "seed": 0}


def test_integrate_human_report(capsys):
    code, out, err = run(capsys, ["integrate", "kind=D", PAIR])
    assert code == 0 and err == ""
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["value"] == "0.5" and lines["kind"] == "D"


def test_json_floats_are_full_precision(capsys):
    _, out, _ = run(capsys, ["integrate", "--json",
                             "f=step[0,1]{nodes:0,1; at:0.1,0.1; on:0.1} "
                             "g=affine[0,1]{slope:1}"])
    assert '"value": 0.10000000000000001' in out


def test_verify_main_passes_on_mixed_pair(capsys):
    code, report, _ = run_json(capsys, ["verify-main", "--json", PAIR])
    assert code == 0 and report["ok"] is True
    assert report["residuals"]["k_minus_y"] == 0
    assert report["residuals"]["by_parts"] <= 1e-12
    assert report["command"] == "verify-main"


def test_verify_bounds_reports_six_slacks(capsys):
    code, report, _ = run_json(capsys, ["verify-bounds", "--json", "kind=Y",
                                        "seed=3", PAIR])
    assert code == 0 and report["ok"] is True
    assert sorted(report["residuals"]) == [
        "integral_bv_sup", "integral_sup_var", "riemann_bv_sup",
        "riemann_sup_var", "young_bv_sup", "young_sup_var"]
    assert all(v is None or v >= -1e-12 for v in report["residuals"].values())


def test_oracle_converges_and_reports_levels(capsys):
    code, report, _ = run_json(capsys, ["oracle", "--json", "kind=Y", PAIR])
    assert code == 0 and report["converged"] is True
    assert report["error_bound"] <= 1e-9
    assert isinstance(report["levels"], int)
    assert abs(report["value"] - 0.5) <= 1e-8


def test_oracle_reports_nonconvergence(capsys):
    code, report, _ = run_json(capsys, ["oracle", "--json", "kind=D",
                                        "tol=1e-30", PAIR])
    assert code == 1
    assert report["converged"] is False and report["error_bound"] > 1e-30


def test_dsl_errors_exit_2(capsys):
    code, out, err = run(capsys, ["integrate", "--json", "f=step[0,1]{nodes:0"])
    assert code == 2
    assert "error" in json.loads(out)
    code, _, err = run(capsys, ["integrate", "kind=Q", PAIR])
    assert code == 2 and "unknown integral kind 'Q'" in err
    code, _, err = run(capsys, ["integrate"])
    assert code == 2 and "missing job text" in err


def test_subcommand_must_match_job_text(capsys):
    code, _, err = run(capsys, ["integrate", f"oracle {PAIR}"])
    assert code == 2 and "subcommand" in err
    # A bare job line inherits the subcommand instead.
    code, report, _ = run_json(capsys, ["oracle", "--json", PAIR])
    assert code == 0 and report["command"] == "oracle"


def test_flag_overrides(capsys):
    code, report, _ = run_json(capsys, ["oracle", "--json", "--seed", "5", PAIR])
    assert code == 0 and report["seed"] == 5
    _, loose, _ = run_json(capsys, ["integrate", "--json", "--tol", "1e-2",
                                    "f=sin[0,1]{freq:3}", "g=sin[0,1]{freq:2}"])
    _, tight, _ = run_json(capsys, ["integrate", "--json", "--tol", "1e-4",
                                    "f=sin[0,1]{freq:3}", "g=sin[0,1]{freq:2}"])
    assert 0 < tight["error_bound"] <= 1e-4 < loose["error_bound"] <= 1e-2
    code, _, err = run(capsys, ["integrate", "--tol", "-1", PAIR])
    assert code == 2 and "tol must be positive" in err


def test_refused_computation_exits_3(capsys):
    code, report, _ = run_json(capsys, ["integrate", "--json", "tol=1e-15",
                                        "f=sin[0,1]{freq:3}",
                                        "g=sin[0,1]{freq:2}"])
    assert code == 3 and "error" in report
    code, out, err = run(capsys, ["integrate", "tol=1e-15",
                                  "f=sin[0,1]{freq:3}", "g=sin[0,1]{freq:2}"])
    assert code == 3 and out == "" and "error:" in err


def test_refusal_reports_the_reachable_tolerance(capsys, monkeypatch):
    job = ["integrate", "--json", "tol=1e-15", "f=sin[0,1]{freq:3}",
           "g=sin[0,1]{freq:2}"]
    code, report, _ = run_json(capsys, job)
    assert code == 3 and set(report) == {"error", "best_error"}
    # In integral units: f's Lipschitz constant 3 times var g = 2 over
    # the cell limit, where the approximant's own floor is 3 / 2**20.
    assert report["best_error"] == pytest.approx(6 / 2**20)
    assert "can certify" in report["error"]
    # A refusal that names no reachable tolerance reports null.
    def refuse(job):
        raise ApproximationError("no certificate")
    monkeypatch.setitem(cli._RUNNERS, "integrate", refuse)
    code, report, _ = run_json(capsys, job)
    assert code == 3 and report == {"error": "no certificate", "best_error": None}


def test_spec_batch_runs_all_lines(tmp_path, capsys):
    spec = tmp_path / "jobs.txt"
    spec.write_text(
        "# a comment line\n"
        f"integrate kind=D {PAIR}\n"
        "\n"
        f"verify-main {PAIR}\n"
        f"oracle kind=D tol=1e-30 {PAIR}\n")
    code, out, err = run(capsys, ["integrate", "--json", "--spec", str(spec)])
    assert code == 2  # the verify-main line contradicts the subcommand
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert len(reports) == 3
    assert reports[0]["value"] == 0.5
    assert "error" in reports[1]

    spec.write_text(f"integrate kind=D {PAIR}\n"
                    f"integrate kind=K {PAIR}\n")
    code, out, _ = run(capsys, ["integrate", "--json", "--spec", str(spec)])
    assert code == 0
    assert [json.loads(l)["kind"] for l in out.strip().splitlines()] == ["D", "K"]


def test_spec_batch_worst_exit_code_wins(tmp_path, capsys):
    spec = tmp_path / "jobs.txt"
    spec.write_text(f"oracle kind=Y {PAIR}\n"
                    f"oracle kind=D tol=1e-30 {PAIR}\n")
    code, out, _ = run(capsys, ["oracle", "--json", "--spec", str(spec)])
    assert code == 1
    flags = [json.loads(l)["converged"] for l in out.strip().splitlines()]
    assert flags == [True, False]


def test_spec_edge_cases(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n\n")
    code, _, err = run(capsys, ["integrate", "--spec", str(empty)])
    assert code == 2 and "contains no jobs" in err
    code, _, err = run(capsys, ["integrate", "--spec", str(tmp_path / "nope")])
    assert code == 2 and "cannot read" in err
    code, _, err = run(capsys, ["integrate", "--spec", str(empty), PAIR])
    assert code == 2 and "mutually exclusive" in err


def test_exports_resolve_once():
    assert len(stieltjes.__all__) == len(set(stieltjes.__all__))
    missing = [name for name in stieltjes.__all__ if not hasattr(stieltjes, name)]
    assert missing == []


def test_console_script_is_wired():
    """`stieltjes` is declared as `stieltjes.cli:main` and resolves to it.

    The declaration is read from the repo's own pyproject.toml, so the test
    also runs from a source tree (`PYTHONPATH=src`); the installed
    `console_scripts` entry is checked wherever the distribution is installed.
    """
    import importlib.metadata as md

    try:
        md.distribution("stieltjes")
    except md.PackageNotFoundError:
        pass
    else:
        eps = md.entry_points(group="console_scripts")
        ours = [ep for ep in eps if ep.name == "stieltjes"]
        assert ours and ours[0].value == "stieltjes.cli:main"

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts.get("stieltjes") == "stieltjes.cli:main"
    ep = md.EntryPoint(name="stieltjes", value=scripts["stieltjes"],
                       group="console_scripts")
    assert ep.load() is cli.main


def test_cli_import_loads_no_dataclass_machinery():
    # Every CLI job is a fresh process; `dataclasses` would bring
    # `inspect`, `ast`, `dis` and `tokenize` into each one.
    probe = ("import sys; before = set(sys.modules); import stieltjes.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_public_records_are_immutable():
    iv = Interval(0.0, 1.0)
    step = stieltjes.StepFunction(iv, (0.0, 0.5, 1.0), (0.0, 1.0, 2.0), (0.0, 2.0))
    division = stieltjes.Division(iv, (0.0, 0.5, 1.0))
    partition = stieltjes.Partition(division, (0.25, 0.75))
    result = stieltjes.integrate(step, step, IntegralKind.KURZWEIL)
    report = stieltjes.check_sum_bounds(step, step, partition)
    job = stieltjes.parse_spec(f"integrate {PAIR}")
    records = [
        iv, stieltjes.Affine(1.0), stieltjes.Power(2.0), stieltjes.SinWave(3.0),
        step.approximate(1.0), division, partition, step.decompose(),
        stieltjes.ElementaryIntegrand(stieltjes.IndicatorKind.ONE),
        result, result.diagnostics, stieltjes.riemann_sum(step, step, partition),
        report, next(iter(report)), stieltjes.oracle_refinement(step, step, IntegralKind.YOUNG),
        job, job.f,
    ]
    for rec in records:
        # A BoundsReport is a tuple of its checks; all_hold is its one attribute.
        fields = getattr(rec, "_fields", None) or getattr(type(rec), "__slots__", ())
        for name in fields or ("all_hold",):
            with pytest.raises(AttributeError):
                setattr(rec, name, 0)
            with pytest.raises(AttributeError):
                delattr(rec, name)


@pytest.mark.parametrize("argv", [
    ["integrate", "--tol", "inf", "f=affine[0,1]{slope:1} g=affine[0,1]{slope:1}"],
    ["integrate", "--tol", "nan", "f=affine[0,1]{slope:1} g=affine[0,1]{slope:1}"],
    ["integrate", "f=affine[0,1]{slope:1} g=affine[0,1]{slope:1} tol=1e999"],
    ["oracle", "--tol", "inf", "kind=Y", PAIR],
])
def test_non_finite_tol_is_refused_fast(argv):
    # An infinite tol once sent the eps search into an endless loop.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "stieltjes.cli", *argv],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=20)
    assert out.returncode == 2 and out.stdout == ""
    assert "tol must be" in out.stderr


def test_validated_records_rerun_their_checks_on_replace():
    iv = Interval(0.0, 1.0)
    division = stieltjes.Division(iv, (0.0, 0.5, 1.0))
    partition = stieltjes.Partition(division, (0.25, 0.75))
    one = stieltjes.ElementaryIntegrand(stieltjes.IndicatorKind.ONE)
    dec = stieltjes.StepFunction.constant(iv, 1.0).decompose()
    bad = [(division, {"points": (0.0, 0.6, 0.5, 1.0)}),
           (partition, {"tags": (0.25, 0.5, 0.75)}),
           (one, {"tau": 0.5}),
           (dec, {"minus_jumps": ((1.0, 2.0),)})]
    for rec, fields in bad:
        with pytest.raises(stieltjes.DomainError):
            rec._replace(**fields)
        with pytest.raises(stieltjes.DomainError):
            type(rec)._make(fields.get(n, v) for n, v in zip(rec._fields, rec))
        assert rec._replace() == rec and type(rec)._make(rec) == rec
