import pytest
from hypothesis import given

from conftest import dyadic_steps
from stieltjes import (DSLError, DSLSemanticError, DSLSyntaxError, JobSpec,
                       MonotoneFunction, PiecewiseLipschitz, StepFunction,
                       build_function, build_pair, integrate, parse_spec,
                       render_job)

CANON = ("integrate kind=K tol=1e-9 "
         "f=step[0,1]{nodes:0,0.5,1; at:0,1,1; on:0,1} "
         "g=affine[0,1]{slope:1}")


def test_reference_job_parses_and_integrates():
    job = parse_spec(CANON)
    assert job.command == "integrate"
    assert job.kind == "K" and job.tol == 1e-9 and job.seed == 0
    assert job.f.name == "f" and job.f.family == "step"
    assert job.f.interval == (0.0, 1.0)
    assert job.f.get("nodes") == (0.0, 0.5, 1.0)
    assert job.g.family == "affine" and job.g.get("slope") == 1.0
    f, g = build_pair(job)
    assert isinstance(f, StepFunction) and isinstance(g, PiecewiseLipschitz)
    from stieltjes import IntegralKind
    assert integrate(f, g, IntegralKind.KURZWEIL).value == 0.5


def test_field_order_is_free_and_comments_are_ignored():
    text = """
    # the same job, shuffled and commented
    integrate g=affine[0,1]{slope:1}  # integrator
        f=step[0,1]{nodes:0,0.5,1; at:0,1,1; on:0,1}
        tol=1e-9 kind=K
    """
    assert parse_spec(text) == parse_spec(CANON)


ROUNDTRIP_TEXTS = [
    CANON,
    "oracle kind=D seed=7 f=affine[0,1]{slope:1; intercept:-2} "
    "g=step[0,1]{nodes:0,0.25,1; at:1,2,2; on:1,2}",
    "verify-main f=power[0,2]{exponent:2; scale:0.5} "
    "g=sin[0,2]{freq:3; amp:0.25; phase:1.5}",
    "verify-bounds kind=Y f=lipschitz_pieces[0,1]{breaks:0,0.5,1; "
    "formulas:affine(slope:1),sin(freq:2,amp:0.5); at:0,3,0.5} "
    "g=monotone_jumps[0,1]{base:power(exponent:2); jumps:0.25:0.1:0,0.75:0:0.2}",
    "integrate kind=D f=monotone_jumps[0,1]{base:affine(slope:-1,intercept:1); "
    "jumps:0.5:-0.25:-0.25} g=step[0,1]{nodes:0,1; at:0,1; on:0.5}",
]


@pytest.mark.parametrize("text", ROUNDTRIP_TEXTS)
def test_render_round_trip(text):
    job = parse_spec(text)
    again = parse_spec(render_job(job))
    assert again == job
    assert render_job(again) == render_job(job)


@given(dyadic_steps(), dyadic_steps())
def test_round_trip_of_generated_step_jobs(fstep, gstep):
    def block(slot, s):
        return (f"{slot}=step[0,1]{{nodes:{','.join(map(repr, s.nodes))}; "
                f"at:{','.join(map(repr, s.node_values))}; "
                f"on:{','.join(map(repr, s.interior_values))}}}")

    job = parse_spec(f"verify-main {block('f', fstep)} {block('g', gstep)}")
    assert parse_spec(render_job(job)) == job
    f, g = build_pair(job)
    assert f == fstep and g == gstep


def test_built_families():
    f = build_function(parse_spec(
        "integrate f=monotone_jumps[0,1]{base:power(exponent:2); "
        "jumps:0.5:0.1:0.1} g=affine[0,1]{slope:1}").f)
    assert isinstance(f, MonotoneFunction)
    assert f.value(0.5) == 0.35 and f.value(1.0) == 1.2
    g = build_function(parse_spec(
        "integrate f=affine[0,1]{slope:1} g=sin[0,1]{freq:2}").g)
    assert isinstance(g, PiecewiseLipschitz) and g.value(0.0) == 0.0


# ------------------------------------------------------------------- errors

def expect_error(text: str, fragment: str, kind=DSLError):
    with pytest.raises(kind) as info:
        parse_spec(text)
    assert fragment in str(info.value)


def test_contract_error_messages():
    expect_error(CANON.replace("kind=K", "kind=Q"),
                 "unknown integral kind 'Q'", DSLSemanticError)
    expect_error(CANON.replace("nodes:0,0.5,1", "nodes:0,0.6,0.5")
                 .replace("at:0,1,1; on:0,1", "at:0,1,1; on:0,1"),
                 "nodes not strictly increasing at index 2", DSLSemanticError)


def test_syntax_errors_carry_positions():
    with pytest.raises(DSLSyntaxError) as info:
        parse_spec("integrate f=step[0,1]{nodes@}")
    assert info.value.line == 1 and info.value.col == 28
    assert str(info.value).startswith("1:28:")
    with pytest.raises(DSLSyntaxError):
        parse_spec("integrate f=step[0,1]{nodes:0,0.5,1; at:0,1,1; on:0,1")


def test_job_level_validation():
    expect_error("transmogrify f=affine[0,1]{slope:1} g=affine[0,1]{slope:1}",
                 "unknown command")
    expect_error("integrate f=affine[0,1]{slope:1}", "needs both f=")
    expect_error("integrate f=affine[0,1]{slope:1} f=affine[0,1]{slope:1} "
                 "g=affine[0,1]{slope:1}", "duplicate job field 'f'")
    expect_error(CANON + " zap=3", "unknown job field 'zap'")
    expect_error(CANON.replace("tol=1e-9", "tol=0"), "tol must be positive")
    expect_error(CANON + " seed=1.5", "seed must be an integer")
    expect_error(CANON + " g=affine[0,1]{slope:1}", "duplicate job field 'g'")


def test_function_level_validation():
    expect_error("integrate f=zigzag[0,1]{a:1} g=affine[0,1]{slope:1}",
                 "unknown function family 'zigzag'")
    expect_error("integrate f=affine[0,1]{slope:1; slope:2} "
                 "g=affine[0,1]{slope:1}", "duplicate argument 'slope'")
    expect_error("integrate f=affine[0,1]{pitch:1} g=affine[0,1]{slope:1}",
                 "unknown argument 'pitch'")
    expect_error("integrate f=affine[0,1]{intercept:1} g=affine[0,1]{slope:1}",
                 "affine needs slope:")
    expect_error("integrate f=step[0,1]{nodes:0,1; at:0,1; on:0} "
                 "g=affine[0,2]{slope:1}", "but g on")
    expect_error("integrate f=step[0,1]{nodes:0.1,1; at:0,1; on:0} "
                 "g=affine[0,1]{slope:1}", "must run from")
    expect_error("integrate f=step[0,1]{nodes:0,1; at:0,1,5; on:0} "
                 "g=affine[0,1]{slope:1}", "one at: value per node")
    expect_error("integrate f=lipschitz_pieces[0,1]{breaks:0,0.5,1; "
                 "formulas:affine(slope:1)} g=affine[0,1]{slope:1}",
                 "one formula per piece")
    expect_error("integrate f=monotone_jumps[0,1]{base:sin(freq:1)} "
                 "g=affine[0,1]{slope:1}", "base must be affine or power")
    expect_error("integrate f=monotone_jumps[0,1]{base:affine(slope:1); "
                 "jumps:0.5:-1:0} g=affine[0,1]{slope:1}",
                 "points against the monotone direction")
    expect_error("integrate f=power[0,1]{exponent:0.5} g=affine[0,1]{slope:1}",
                 "not Lipschitz at 0")


def test_render_uses_canonical_key_order():
    job = parse_spec("integrate f=step[0,1]{on:0,1; at:0,1,1; nodes:0,0.5,1} "
                     "g=affine[0,1]{intercept:2; slope:1}")
    text = render_job(job)
    assert "nodes:" in text.split("on:")[0]
    assert "slope:" in text.split("intercept:")[0]
    assert parse_spec(text) == job


def test_jobspec_defaults():
    job = parse_spec("oracle f=affine[0,1]{slope:1} g=affine[0,1]{slope:1}")
    assert job == JobSpec(command="oracle", f=job.f, g=job.g,
                          kind="K", tol=1e-9, seed=0)


G_AFFINE = " g=affine[0,1]{slope:1}"
PINNED_ERRORS = [
    ("integrate f=lipschitz_pieces[0,1]{breaks:0,1; formulas:cosh(slope:1)}"
     + G_AFFINE, DSLSemanticError,
     "unknown formula family 'cosh'; pick one of affine, power, sin"),
    ("integrate f=lipschitz_pieces[0,1]{breaks:0,1; formulas:affine(intercept:1)}"
     + G_AFFINE, DSLSemanticError, "affine needs slope: ..."),
    ("integrate f=monotone_jumps[0,1]{base:power(scale:2)}" + G_AFFINE,
     DSLSemanticError, "power needs exponent: ..."),
    ("integrate f=lipschitz_pieces[0,1]{breaks:0,1; formulas:sin(freq:1, freq:2)}"
     + G_AFFINE, DSLSemanticError, "duplicate argument 'freq' for sin"),
    ("integrate f=lipschitz_pieces[0,1]{breaks:0,1; formulas:sin(amp:1, pitch:2)}"
     + G_AFFINE, DSLSemanticError,
     "unknown argument 'pitch' for sin; expected freq, amp, phase"),
    ("integrate f=monotone_jumps[0,1]{base:affine(slope:1); jumps:0.5:0.1}"
     + G_AFFINE, DSLSyntaxError, "1:68: expected ':' in t:pre:post, got '}'"),
    ("integrate f=monotone_jumps[0,1]{base:affine(slope:1); jumps:0.5,0.1,0}"
     + G_AFFINE, DSLSyntaxError, "1:64: expected ':' in t:pre:post, got ','"),
    ("integrate f=affine[0,1]{slope:1}" + G_AFFINE + " ;", DSLSyntaxError,
     "1:57: expected f=, g=, kind=, tol= or seed=, got ';'"),
    ("integrate f=affine[0,1]{slope:1}" + G_AFFINE + " 3", DSLSyntaxError,
     "1:57: expected f=, g=, kind=, tol= or seed=, got '3'"),
    ("integrate f=step[0,1]{nodes:0,1; at:0,1; on:0,1}" + G_AFFINE,
     DSLSemanticError, "step needs one on: value per piece (1), got 2"),
    ("integrate f=step[0,1]{nodes:0; at:0; on:0}" + G_AFFINE,
     DSLSemanticError, "at least 2 nodes needed, got 1"),
    ("integrate f=lipschitz_pieces[0,1]{breaks:0,1; formulas:affine(slope:1); at:0}"
     + G_AFFINE, DSLSemanticError,
     "lipschitz_pieces needs one at: value per break (2), got 1"),
    ("integrate f=zigzag[0,1]{a:1}" + G_AFFINE, DSLSemanticError,
     "unknown function family 'zigzag'; pick one of affine, lipschitz_pieces, "
     "monotone_jumps, power, sin, step"),
    ("integrate f=step[0,1]{nodes:0,1; at:0,1}" + G_AFFINE, DSLSemanticError,
     "step needs on: ..."),
    ("integrate f=affine[0,1]{slope:1 intercept:2}" + G_AFFINE, DSLSyntaxError,
     "1:33: expected '}' or ';', got 'intercept'"),
    ("integrate f=lipschitz_pieces[0,1]{breaks:0,1; formulas:affine(slope:1; "
     "intercept:2)}" + G_AFFINE, DSLSyntaxError, "1:70: expected ')' or ',', got ';'"),
]


@pytest.mark.parametrize("text, kind, message", PINNED_ERRORS)
def test_error_messages_are_pinned(text, kind, message):
    with pytest.raises(kind) as info:
        parse_spec(text)
    assert str(info.value) == message
