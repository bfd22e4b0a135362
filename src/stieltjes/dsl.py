"""Tiny job language for the command line tool.

One job is one line (or any whitespace-separated stretch) of the form

    <command> f=<function> g=<function> [kind=K|Y|D] [tol=NUM] [seed=INT]

with commands ``integrate``, ``verify-main``, ``verify-bounds`` and
``oracle``; the fields may come in any order.  ``#`` starts a comment
running to end of line.  Function terms look like
``family[a, b]{key: values; key: values}``::

    step[0, 1]{nodes: 0, 0.5, 1; at: 0, 1, 1; on: 0, 1}
        piecewise constant; nodes include both endpoints and must span
        [a, b], ``at`` holds the values at the nodes, ``on`` the values
        on the open pieces between them.

    lipschitz_pieces[0, 1]{breaks: 0, 0.5, 1;
                           formulas: affine(slope: 1), sin(freq: 2);
                           at: 0, 0.3, 1}
        piecewise smooth, one formula per piece; ``at`` (optional)
        overrides the values at the breakpoints, the default splices
        each breakpoint onto the piece to its right.

    monotone_jumps[0, 1]{base: power(exponent: 2); jumps: 0.5:0.2:0.1}
        a monotone affine or power base plus jump corrections
        ``t:pre:post`` where ``pre`` = f(t) - f(t-) and ``post`` =
        f(t+) - f(t).

    affine[0, 1]{slope: 2; intercept: -1}
    power[0, 1]{exponent: 1.5; scale: 2}
    sin[0, 1]{freq: 3; amp: 0.5; phase: 1}
        shorthand for a one-piece lipschitz_pieces.

Formula terms inside ``formulas:`` and ``base:`` use parentheses with
comma-separated arguments and drop the interval (they inherit their
piece's span): ``affine(slope: 1, intercept: 2)``, ``power(exponent:
2, scale: -1)``, ``sin(freq: 2, amp: 1, phase: 0)``.

Grammar (EBNF)::

    job      = command { field }
    command  = "integrate" | "verify-main" | "verify-bounds" | "oracle"
    field    = "f" "=" function | "g" "=" function
             | "kind" "=" name | "tol" "=" number | "seed" "=" number
    function = family "[" number "," number "]" "{" entry { ";" entry } "}"
    entry    = key ":" (numbers | formulas | jumps)
    numbers  = number { "," number }
    formulas = formula { "," formula }
    formula  = ("affine" | "power" | "sin") "(" arg { "," arg } ")"
    arg      = key ":" number
    jumps    = jump { "," jump }
    jump     = number ":" number ":" number

``parse_spec`` validates fully, by actually constructing both
functions; ``render_job`` is the canonical printer and
``parse_spec(render_job(job)) == job`` for every job it emits.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .core import Interval, RegulatedFunction
from .errors import DomainError, DSLSemanticError, DSLSyntaxError, check_tol
from .regulated import (Affine, MonotoneFunction, PiecewiseLipschitz, Power,
                        SinWave)
from .stepfun import StepFunction

COMMANDS = ("integrate", "verify-main", "verify-bounds", "oracle")
KINDS = ("K", "Y", "D")

# Every family's keys in canonical order, each with the _Parser method
# that reads its value and the default taken when it is left out.
_NEEDED = object()  # the default of a required key
_SCHEMA = {
    "step": {"nodes": ("numbers", _NEEDED), "at": ("numbers", _NEEDED),
             "on": ("numbers", _NEEDED)},
    "lipschitz_pieces": {"breaks": ("numbers", _NEEDED),
                         "formulas": ("formulas", _NEEDED), "at": ("numbers", None)},
    "monotone_jumps": {"base": ("formula", _NEEDED), "jumps": ("jumps", ())},
    "affine": {"slope": ("number", _NEEDED), "intercept": ("number", 0.0)},
    "power": {"exponent": ("number", _NEEDED), "scale": ("number", 1.0)},
    "sin": {"freq": ("number", _NEEDED), "amp": ("number", 1.0),
            "phase": ("number", 0.0)},
}
_FORMULAS = {"affine": Affine, "power": Power, "sin": SinWave}


class FunctionSpec(NamedTuple):
    """Parsed function description.  ``name`` records which job slot it
    fills (or the formula family for nested terms); payload keys sit in
    canonical order so equal texts give equal specs."""

    name: str
    family: str
    interval: tuple[float, float] | None
    payload: tuple[tuple[str, object], ...]

    def get(self, key: str, default=None):
        for k, v in self.payload:
            if k == key:
                return v
        return default


class JobSpec(NamedTuple):
    command: str
    f: FunctionSpec
    g: FunctionSpec
    kind: str = "K"
    tol: float = 1e-9
    seed: int = 0


# ----------------------------------------------------------------------
# Tokens.

class Token(NamedTuple):
    kind: str   # "name", "number", a punctuation character, or "end"
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z][A-Za-z0-9_-]*)
      | (?P<punct>[=\[\](){},;:])
    """, re.VERBOSE)


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DSLSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        kind = m.lastgroup
        if kind in ("number", "name"):
            out.append(Token(kind, chunk, line, col))
        elif kind == "punct":
            out.append(Token(chunk, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    out.append(Token("end", "", line, col))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise DSLSyntaxError(f"expected {what}, got {shown!r}", tok.line, tok.col)
        return self.next()

    def number(self, what: str = "a number") -> float:
        return float(self.expect("number", what).text)

    def name(self, what: str = "a name") -> str:
        return self.expect("name", what).text

    # -- payload values ----------------------------------------------------

    def _list(self, item) -> tuple:
        out = [item()]
        while self.peek().kind == ",":
            self.next()
            out.append(item())
        return tuple(out)

    def numbers(self) -> tuple[float, ...]:
        return self._list(self.number)

    def jumps(self) -> tuple[tuple[float, float, float], ...]:
        return self._list(self.jump)

    def formulas(self) -> tuple[FunctionSpec, ...]:
        return self._list(self.formula)

    def jump(self) -> tuple[float, float, float]:
        t = self.number("a jump location")
        self.expect(":", "':' in t:pre:post")
        pre = self.number("the pre-jump")
        self.expect(":", "':' in t:pre:post")
        return t, pre, self.number("the post-jump")

    def formula(self) -> FunctionSpec:
        fam = self.name("a formula family")
        if fam not in _FORMULAS:
            raise DSLSemanticError(
                f"unknown formula family {fam!r}; pick one of " + ", ".join(_FORMULAS))
        self.expect("(", "'('")
        return FunctionSpec(fam, fam, None, self.entries(fam, ",", ")"))

    def entries(self, family: str, sep: str, close: str) -> tuple[tuple[str, object], ...]:
        """``key: value`` entries separated by ``sep`` up to ``close``,
        checked against the family's schema and put in canonical order."""
        schema = _SCHEMA[family]
        seen: dict[str, object] = {}
        while True:
            key = self.name("a payload key" if sep == ";" else "an argument name")
            if key in seen:
                raise DSLSemanticError(f"duplicate argument {key!r} for {family}")
            if key not in schema:
                raise DSLSemanticError(
                    f"unknown argument {key!r} for {family}; expected " + ", ".join(schema))
            self.expect(":", "':'")
            seen[key] = getattr(self, schema[key][0])()
            if self.peek().kind != sep:
                break
            self.next()
        self.expect(close, f"'{close}' or '{sep}'")
        for key, (_, default) in schema.items():
            if default is _NEEDED and key not in seen:
                raise DSLSemanticError(f"{family} needs {key}: ...")
        return tuple((k, seen[k]) for k in schema if k in seen)

    def function(self, slot: str) -> FunctionSpec:
        fam = self.name("a function family")
        if fam not in _SCHEMA:
            raise DSLSemanticError(
                f"unknown function family {fam!r}; pick one of "
                + ", ".join(sorted(_SCHEMA)))
        self.expect("[", "'[a, b]' with the interval")
        a = self.number("the interval start")
        self.expect(",", "','")
        b = self.number("the interval end")
        self.expect("]", "']'")
        self.expect("{", "'{'")
        return FunctionSpec(slot, fam, (a, b), self.entries(fam, ";", "}"))

    def job(self) -> JobSpec:
        command = self.name("a command")
        if command not in COMMANDS:
            raise DSLSemanticError(
                f"unknown command {command!r}; pick one of " + ", ".join(COMMANDS))
        fields: dict[str, object] = {}
        while self.peek().kind != "end":
            key = self.name("f=, g=, kind=, tol= or seed=")
            if key not in ("f", "g", "kind", "tol", "seed"):
                raise DSLSemanticError(f"unknown job field {key!r}")
            if key in fields:
                raise DSLSemanticError(f"duplicate job field {key!r}")
            self.expect("=", "'='")
            if key in ("f", "g"):
                fields[key] = self.function(key)
            elif key == "kind":
                fields[key] = self.name("an integral kind")
            else:
                fields[key] = self.number()
        if "f" not in fields or "g" not in fields:
            raise DSLSemanticError(f"{command} needs both f=... and g=...")
        kind = fields.get("kind", "K")
        if kind not in KINDS:
            raise DSLSemanticError(f"unknown integral kind {kind!r}")
        tol = float(fields.get("tol", 1e-9))
        check_tol(tol, DSLSemanticError, "tol")
        raw_seed = fields.get("seed", 0)
        if isinstance(raw_seed, float) and not raw_seed.is_integer():
            raise DSLSemanticError(f"seed must be an integer, got {raw_seed!r}")
        return JobSpec(command, fields["f"], fields["g"], kind, tol, int(raw_seed))


# ----------------------------------------------------------------------
# Building actual functions out of specs.

def _args(spec: FunctionSpec) -> list:
    """The spec's values in schema order, defaults filled in."""
    return [spec.get(key, default) for key, (_, default) in _SCHEMA[spec.family].items()]


def _build_formula(spec: FunctionSpec):
    return _FORMULAS[spec.family](*_args(spec))


def build_function(spec: FunctionSpec) -> RegulatedFunction:
    """Construct the function a spec describes, or raise
    DSLSemanticError explaining why there is no such function."""
    try:
        interval = Interval(*spec.interval)
        if spec.family == "step":
            nodes, at, on = _args(spec)
            nodes = interval.check_division(nodes, "nodes")
            if len(at) != len(nodes):
                raise DSLSemanticError(
                    f"step needs one at: value per node ({len(nodes)}), got {len(at)}")
            if len(on) != len(nodes) - 1:
                raise DSLSemanticError(
                    f"step needs one on: value per piece ({len(nodes) - 1}), "
                    f"got {len(on)}")
            return StepFunction(interval, nodes, at, on)
        if spec.family == "lipschitz_pieces":
            breaks, formulas, at = _args(spec)
            breaks = interval.check_division(breaks, "breaks")
            if len(formulas) != len(breaks) - 1:
                raise DSLSemanticError(
                    f"lipschitz_pieces needs one formula per piece "
                    f"({len(breaks) - 1}), got {len(formulas)}")
            if at is not None and len(at) != len(breaks):
                raise DSLSemanticError(
                    f"lipschitz_pieces needs one at: value per break "
                    f"({len(breaks)}), got {len(at)}")
            return PiecewiseLipschitz.from_formulas(
                interval, breaks, tuple(_build_formula(s) for s in formulas), at)
        if spec.family == "monotone_jumps":
            base, jumps = _args(spec)
            if base.family == "sin":
                raise DSLSemanticError("monotone_jumps base must be affine or power")
            return MonotoneFunction(interval, _build_formula(base), jumps)
        return PiecewiseLipschitz.from_formulas(
            interval, (interval.a, interval.b), (_build_formula(spec),))
    except DomainError as exc:
        raise DSLSemanticError(str(exc)) from exc


def build_pair(job: JobSpec) -> tuple[RegulatedFunction, RegulatedFunction]:
    f = build_function(job.f)
    g = build_function(job.g)
    if f.interval != g.interval:
        raise DSLSemanticError(
            f"f lives on [{f.interval.a}, {f.interval.b}] but g on "
            f"[{g.interval.a}, {g.interval.b}]")
    return f, g


def parse_spec(text: str) -> JobSpec:
    """Parse and fully validate one job."""
    job = _Parser(text).job()
    build_pair(job)
    return job


# ----------------------------------------------------------------------
# Canonical rendering; parse_spec(render_job(job)) == job.

def _render_value(value, sep: str = ", ") -> str:
    # A list entry joins its items with ", ", a t:pre:post jump with ":".
    if isinstance(value, FunctionSpec):
        return render_function(value)
    if isinstance(value, tuple):
        return sep.join(_render_value(v, ":") for v in value)
    return repr(value)


def render_function(spec: FunctionSpec) -> str:
    """Canonical text of a function term, or of a formula term (one
    without an interval)."""
    if spec.interval is None:
        args = ", ".join(f"{k}: {_render_value(v)}" for k, v in spec.payload)
        return f"{spec.family}({args})"
    a, b = spec.interval
    entries = "; ".join(f"{k}: {_render_value(v)}" for k, v in spec.payload)
    return f"{spec.family}[{a!r}, {b!r}]{{{entries}}}"


def render_job(job: JobSpec) -> str:
    return (f"{job.command} f={render_function(job.f)} g={render_function(job.g)} "
            f"kind={job.kind} tol={job.tol!r} seed={job.seed}")
