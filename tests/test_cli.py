import gc
import json
import math
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


def test_json_refuses_a_value_it_cannot_spell():
    with pytest.raises(TypeError, match="cannot serialize"):
        cli._json([1.0])


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


def test_an_overflowing_norm_product_skips_its_check(capsys):
    # sup|f| var g and bv f sup|g| are 1e200 times 1e200 or more, past
    # the float range; an inf bound says nothing, so each check is
    # skipped, not "held".  f is nonzero only at b, where g does not
    # jump, so every sum and the integral are 0.
    job = "f=step[0,1]{nodes:0,1; at:0,1e200; on:0} g=affine[0,1]{slope:1e200}"
    code, report, _ = run_json(capsys, ["verify-bounds", "--json", job])
    assert code == 0 and report["ok"] is True
    assert len(report["residuals"]) == 6
    assert all(v is None for v in report["residuals"].values())
    code, out, err = run(capsys, ["verify-bounds", job])
    assert code == 0 and err == "" and "inf" not in out
    assert out.count(": skipped\n") == 6


STEP_AFFINE = "f=step[0,1]{nodes:0,0.5,1; at:0,0,1; on:0,1} g=affine[0,1]{slope:1}"


def test_verify_main_human_report(capsys):
    code, out, err = run(capsys, ["verify-main", STEP_AFFINE])
    assert code == 0 and err == ""
    assert out == ("command: verify-main\nkind: K\nvalue: 0.5\nerror_bound: 0\n"
                   "residuals.k_minus_y: 0\nresiduals.by_parts: 0\nok: true\nseed: 0\n")


def test_verify_bounds_human_report(capsys):
    code, out, err = run(capsys, ["verify-bounds", STEP_AFFINE])
    assert code == 0 and err == ""
    assert out == ("command: verify-bounds\nkind: K\nvalue: 0.5\nerror_bound: 0\n"
                   "residuals.integral_sup_var: 0.5\n"
                   "residuals.integral_bv_sup: 2.5\n"
                   "residuals.riemann_sup_var: 0.333135\n"
                   "residuals.riemann_bv_sup: 2.33314\n"
                   "residuals.young_sup_var: 0.333135\n"
                   "residuals.young_bv_sup: 2.33314\n"
                   "ok: true\nseed: 0\n")


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


@pytest.mark.parametrize("argv, code, err_text", [
    (["integrate", "--json", PAIR], 0, ""),
    (["integrate", PAIR, "--json"], 0, ""),
    (["--json", "integrate", PAIR], 0, ""),
    (["integrate", AFFINE_F, "--json", STEP_G], 0, ""),
    (["integrate", "--tol", "1e-3", PAIR], 0, ""),
    (["integrate", "--json", "--spec", "SPEC"], 0, ""),
    ([], 2, "required: command"),
    (["bogus", PAIR], 2, "invalid choice"),
    (["integrate"], 2, "missing job text"),
])
def test_one_parser_takes_flags_in_any_order(tmp_path, capsys, argv, code, err_text):
    spec = tmp_path / "jobs.txt"
    spec.write_text(f"integrate {PAIR}\n")
    argv = [str(spec) if a == "SPEC" else a for a in argv]
    try:
        got = cli.main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        got = exc.code
    captured = capsys.readouterr()
    assert got == code and err_text in captured.err
    if code == 0:
        assert captured.err == "" and "value" in captured.out


NEGATIVE_PAIR = "f=step[0,1]{nodes:0,0.5,1; at: -1, 1, 1; on: -0.5, 1} g=affine[0,1]{slope:1}"


def test_an_unquoted_job_may_have_negative_words(capsys):
    # The shell splits an unquoted job at its spaces, so "-1," and "-0.5,"
    # arrive as words of their own; a single-dash word is job text.
    quoted = run(capsys, ["integrate", "--json", NEGATIVE_PAIR])
    words = ["integrate", "--json", *NEGATIVE_PAIR.split()]
    assert "-1," in words and "-0.5," in words
    assert run(capsys, words) == quoted
    assert quoted[0] == 0 and json.loads(quoted[1])["value"] == 0.25


def test_a_value_flag_may_take_its_value_after_an_equals_sign(tmp_path, capsys):
    spaced = run(capsys, ["integrate", "--json", "--tol", "1e-3", "--seed", "4",
                          "f=sin[0,1]{freq:3}", "g=sin[0,1]{freq:2}"])
    joined = run(capsys, ["integrate", "--json", "--tol=1e-3", "--seed=4",
                          "f=sin[0,1]{freq:3}", "g=sin[0,1]{freq:2}"])
    assert joined == spaced and json.loads(joined[1])["seed"] == 4
    spec = tmp_path / "jobs.txt"
    spec.write_text(f"integrate {PAIR}\n")
    assert run(capsys, ["integrate", f"--spec={spec}"])[0] == 0


@pytest.mark.parametrize("argv, err_text", [
    (["integrate", "--seed", "x", PAIR], "argument --seed: invalid int value: 'x'"),
    (["integrate", "--tol=1e", PAIR], "argument --tol: invalid float value: '1e'"),
    (["integrate", PAIR, "--tol"], "argument --tol: expected one argument"),
    (["integrate", "--spec", "--json"], "argument --spec: expected one argument"),
    (["integrate", "--bogus", PAIR], "unrecognized arguments: --bogus"),
    (["integrate", "--js", PAIR], "unrecognized arguments: --js"),
    (["integrate", "--json=1", PAIR], "unrecognized arguments: --json=1"),
])
def test_usage_errors_exit_2_after_the_usage_line(capsys, argv, err_text):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: stieltjes ")
    assert err.endswith(f"\nstieltjes: error: {err_text}\n")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["integrate", PAIR, "-h"]])
def test_help_prints_the_usage_line_and_exits_0(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert cli._USAGE in out.splitlines()


def test_a_double_dash_ends_the_flags(capsys):
    code, out, _ = run(capsys, ["integrate", "--json", "--", PAIR])
    assert code == 0 and json.loads(out)["value"] == 0.5
    # After "--", "--json" and "-h" are job text, which the DSL rejects.
    for word in ("--json", "-h"):
        code, out, err = run(capsys, ["integrate", "--", word, PAIR])
        assert code == 2 and out == "" and "unexpected character '-'" in err
    code, _, err = run(capsys, ["--", "--json", PAIR])
    assert code == 2 and "invalid choice: '--json'" in err


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
    # The fourth-order floor: the truncation of 2**20 Gauss-Legendre cells
    # is near 1e-26, so the floor is the rounding term, 245 u = 2.72e-14
    # (u = 2**-53).  Of it, 151 u are the nodes' positions, 12 u sup|F'|
    # with sup|F'| <= 3 * 2 + 1.64 * 4 (1.64 the certified sup of sin 3t),
    # 75 u the values and 20 u the products and sums.
    assert 2.7e-14 < report["best_error"] <= 2.75e-14
    assert "can certify" in report["error"]
    # A refusal that names no reachable tolerance reports null.
    def refuse(*_):
        raise ApproximationError("no certificate")
    monkeypatch.setitem(cli._RUNNERS, "integrate", refuse)
    code, report, _ = run_json(capsys, job)
    assert code == 3 and report == {"error": "no certificate", "best_error": None}


@pytest.mark.parametrize("job, code", [
    # An integrator whose variation overflows counts as uncertified, so
    # the integrand side is tried, and its cell count overflows.
    ("f=sin[-1e8,1e8]{freq:1} g=affine[-1e8,1e8]{slope:1e300}", 3),
    # The swapped pair: the integrand's bv overflows instead.
    ("f=affine[-1e8,1e8]{slope:1e300} g=sin[-1e8,1e8]{freq:1}", 3),
    # f(1e10) overflows to inf at a break: no such function.
    ("f=affine[0,1e10]{slope:1e300} g=sin[0,1e10]{freq:1}", 2),
    # A monotone base that overflows at b, and a finite base whose value
    # at b overflows once the jump there is added.
    ("f=monotone_jumps[0,1e10]{base: affine(slope:1e300)} g=sin[0,1e10]{freq:1}", 2),
    ("f=monotone_jumps[0,1]{base: affine(slope:1.7e308); jumps: 1:1.7e308:0} "
     "g=sin[0,1]{freq:1}", 2),
    # t**2 past the float range at b, as a function and as a monotone base.
    ("f=power[0,1e200]{exponent:2} g=affine[0,1e200]{slope:1}", 2),
    ("f=monotone_jumps[0,1e200]{base: power(exponent: 2)} g=affine[0,1e200]{slope:1}", 2),
    # sin(9 t) at b, whose argument is past the float range.
    ("f=sin[0,1e308]{freq:9} g=affine[0,1e308]{slope:1}", 2),
])
def test_overflowing_certificates_are_refused(capsys, job, code):
    got, report, err = run_json(capsys, ["integrate", "--json", job])
    assert got == code and err == ""
    assert "overflow" in report["error"]
    assert "must be positive" not in report["error"]
    if code == 3:
        assert report["best_error"] is None


@pytest.mark.parametrize("f, why", [
    # t**1.5 at -1 is complex: no such monotone base, as no such piece.
    ("monotone_jumps[-1,1]{base: power(exponent: 1.5)}", "base values must be real"),
    ("power[-1,1]{exponent:1.5}", "t**1.5 undefined left of 0"),
])
def test_a_power_left_of_0_is_refused(capsys, f, why):
    got, report, err = run_json(capsys, ["integrate", "--json", f"f={f} g=affine[-1,1]{{slope:1}}"])
    assert got == 2 and err == ""
    assert why in report["error"]


OVERFLOWING_STEP_PAIR = ("f=step[0,1]{nodes:0,0.5,1; at:0,0,0; on:1.5e308,1.5e308} "
                         "g=affine[0,1]{slope:2}")


@pytest.mark.parametrize("argv, what", [
    # The one product -1e308 * 1e308 is -inf.
    (["integrate", "f=step[0,1]{nodes:0,1; at:1e308,1e308; on:-1e308} "
      "g=affine[0,1]{slope:1e308}"], "the step-pair sum"),
    # Two finite terms of 1.5e308 whose partial sum overflows in fsum.
    (["integrate", OVERFLOWING_STEP_PAIR], "the step-pair sum"),
    (["oracle", "kind=Y", OVERFLOWING_STEP_PAIR], "the Young sum"),
    (["verify-bounds", OVERFLOWING_STEP_PAIR], "the step-pair sum"),
])
def test_overflowing_sums_are_refused(capsys, argv, what):
    got, report, err = run_json(capsys, [argv[0], "--json", *argv[1:]])
    assert got == 3 and err == ""
    assert report == {"error": f"{what} overflows: not finite", "best_error": None}


def test_monotone_cell_count_overflow_keeps_its_best_error(capsys):
    # A rise of 1e300 leaves a rounding term near 5e285, far above tol
    # 1e-9, so no count of Gauss-Legendre cells fits; the floor, that
    # rounding term, stays finite.
    job = "f=monotone_jumps[0,1]{base: affine(slope:1e300)} g=sin[0,1]{freq:1}"
    got, report, err = run_json(capsys, ["integrate", "--json", job])
    assert got == 3 and err == ""
    assert "Gauss-Legendre cells" in report["error"]
    assert 0 < report["best_error"] < math.inf


SPEC_COMMANDS = {"oracle_seeded": ("oracle",),
                 "integrate_seeded": ("integrate", "verify-main", "verify-bounds")}


@pytest.mark.parametrize("name", sorted(SPEC_COMMANDS))
def test_spec_files_match_their_golden_output(capsys, name):
    # Each --spec file under each of its commands, in order, with --json,
    # as `python -m stieltjes.cli CMD --json --spec FILE` prints it.  The
    # oracle reports' spreads and levels follow the random stream bit for
    # bit, which the benchmark's smoke runs (any value within 2 tol) miss.
    here = Path(__file__).resolve().parent
    out = []
    for command in SPEC_COMMANDS[name]:
        code, stdout, err = run(capsys, [command, "--json", "--spec",
                                         str(here / f"{name}.spec")])
        assert code == 0 and err == ""
        out.append(stdout)
    assert "".join(out) == (here / f"{name}.golden").read_text(encoding="utf-8")


def test_run_job_maps_a_build_error_to_exit_2():
    # run_job builds the pair itself, so a job nobody validated can still
    # fail in the DSL: a job error, exit 2, not an exception.
    job = stieltjes.parse_spec(f"integrate {PAIR}")
    bad = job._replace(f=job.f._replace(interval=(1.0, 0.0)))
    code, report = cli.run_job(bad)
    assert code == 2 and list(report) == ["error"] and isinstance(report["error"], str)


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
    """`stieltjes` is declared as `stieltjes.cli:launch` and resolves to it,
    the same entry as `python -m stieltjes.cli`.

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
        assert ours and ours[0].value == "stieltjes.cli:launch"

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts.get("stieltjes") == "stieltjes.cli:launch"
    ep = md.EntryPoint(name="stieltjes", value=scripts["stieltjes"],
                       group="console_scripts")
    assert ep.load() is cli.launch


def test_main_in_process_does_not_freeze_the_heap(capsys):
    # Only the process entry, cli.launch, freezes; a library or test
    # process that calls main keeps collecting its objects.
    before = gc.get_freeze_count()
    assert cli.main(["integrate", "--json", PAIR]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def run_module(args, **kwargs):
    """`python -m stieltjes.cli ARGS` in a fresh process, with src on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "stieltjes.cli", *args],
                          env=dict(os.environ, PYTHONPATH=path), timeout=60, **kwargs)


def test_a_process_exits_with_the_worst_code_after_every_report(tmp_path):
    spec = tmp_path / "jobs.txt"
    spec.write_text(f"integrate kind=D {PAIR}\n"
                    f"integrate f=affine[0,1]{{slope:1}} g=bogus[0,1]{{}}\n"
                    "integrate tol=1e-15 f=sin[0,1]{freq:3} g=sin[0,1]{freq:2}\n")
    out = run_module(["integrate", "--json", "--spec", str(spec)],
                     capture_output=True, text=True)
    assert out.returncode == 3 and out.stderr == ""
    reports = [json.loads(line) for line in out.stdout.splitlines()]
    assert len(reports) == 3
    assert reports[0]["value"] == 0.5
    assert "error" in reports[1] and "best_error" not in reports[1]  # exit 2
    assert "best_error" in reports[2]  # exit 3


def modules_cli_import_loads(names):
    """The modules among `names` that `import stieltjes.cli` loads in a
    fresh interpreter."""
    probe = ("import sys; before = set(sys.modules); import stieltjes.cli; "
             f"print(sorted({set(names)!r} & (set(sys.modules) - before)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True, timeout=60)
    return out.stdout.strip()


def test_cli_import_loads_no_dataclass_machinery():
    # Every CLI job is a fresh process; `dataclasses` would bring
    # `inspect`, `ast`, `dis` and `tokenize` into each one.
    assert modules_cli_import_loads({"dataclasses", "inspect"}) == "[]"


def test_cli_import_loads_no_argparse():
    # argparse and the gettext lookups of its help strings cost a CLI
    # process about 3 ms; the flags are read by one scan of argv.
    assert modules_cli_import_loads({"argparse", "gettext"}) == "[]"


def test_a_closed_stdout_exits_1_without_a_traceback():
    # The pipe's read end is closed before the process starts, so its
    # first write meets EPIPE, as under `stieltjes ... | head -0`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    try:
        out = subprocess.run([sys.executable, "-m", "stieltjes.cli", "integrate", STEP_AFFINE],
                             stdout=write_end, stderr=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONPATH=path), timeout=60)
    finally:
        os.close(write_end)
    assert out.returncode == 1
    assert out.stderr == ""


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
