"""Reference integrals computed without any of the library's logic.

Functions are described by a ``Model``: sorted breakpoints, a value at
each breakpoint and one smooth formula on each open piece between them.
A formula is a list of terms, ``Mono(c, p)`` for ``c * t**p`` and
``Wave(A, w, phi, cos)`` for ``A * sin(w t + phi)`` (or ``cos``).  Step
functions, the library's piecewise-Lipschitz functions and its monotone
functions with jumps are all such models.

For a model integrand f and a model integrator g with continuous part
g_c and jumps,

    I(f, dg) = sum over pieces of int f(t) g_c'(t) dt + jump terms,
    K, Y jump term at tau: f(tau) (g(tau+) - g(tau-))
    D    jump term at tau: f(tau-) (g(tau) - g(tau-)) + f(tau+) (g(tau+) - g(tau))

with g(a-) := g(a) and g(b+) := g(b).  The piece integrals use closed
antiderivatives of monomial-times-monomial and monomial-times-sinusoid
products.  When both models are step functions the whole sum is
evaluated exactly in ``fractions.Fraction``.

Rounding allowances follow Higham's gamma_n = n u / (1 - n u), with
u = 2**-53, times a sum of absolute values; they assume ``math.sin``,
``math.cos`` and ``**`` are within one ulp of the true value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

UNIT_ROUNDOFF = 2.0 ** -53


def gamma(n: int) -> float:
    """Higham's gamma_n: the relative error bound of n rounded operations."""
    nu = n * UNIT_ROUNDOFF
    return nu / (1.0 - nu)


@dataclass(frozen=True)
class Mono:
    """c * t**p, p >= 0."""

    c: float
    p: float

    def at(self, t: float) -> float:
        return self.c if self.p == 0 else self.c * t ** self.p

    def deriv(self) -> list:
        return [] if self.p == 0 else [Mono(self.c * self.p, self.p - 1.0)]

    def sup_on(self, u: float, v: float) -> float:
        return abs(self.c) * max(abs(u), abs(v)) ** self.p

    def slope_on(self, u: float, v: float) -> float:
        if self.p == 0:
            return 0.0
        return abs(self.c * self.p) * max(abs(u), abs(v)) ** (self.p - 1.0)


@dataclass(frozen=True)
class Wave:
    """amp * sin(freq t + phase), or cos when ``cos`` is set."""

    amp: float
    freq: float
    phase: float
    cos: bool = False

    def at(self, t: float) -> float:
        x = self.freq * t + self.phase
        return self.amp * (math.cos(x) if self.cos else math.sin(x))

    def deriv(self) -> list:
        if self.cos:
            return [Wave(-self.amp * self.freq, self.freq, self.phase, False)]
        return [Wave(self.amp * self.freq, self.freq, self.phase, True)]

    def sup_on(self, u: float, v: float) -> float:
        return abs(self.amp)

    def slope_on(self, u: float, v: float) -> float:
        return abs(self.amp * self.freq)


def formula_at(terms, t: float) -> float:
    return math.fsum(term.at(t) for term in terms)


@dataclass(frozen=True)
class Model:
    """A function on [breaks[0], breaks[-1]]: ``at[k]`` is the value at
    ``breaks[k]`` and ``pieces[k]`` the formula on the open piece
    ``(breaks[k], breaks[k+1])``."""

    breaks: tuple
    at: tuple
    pieces: tuple

    def __post_init__(self):
        if len(self.at) != len(self.breaks) or len(self.pieces) != len(self.breaks) - 1:
            raise ValueError("model needs one value per break and one formula per piece")
        if any(not x < y for x, y in zip(self.breaks, self.breaks[1:])):
            raise ValueError("model breaks must increase strictly")

    @cached_property
    def is_step(self) -> bool:
        return all(all(isinstance(t, Mono) and t.p == 0 for t in piece)
                   for piece in self.pieces)

    # One-sided limits at break k, with f(a-) := f(a) and f(b+) := f(b).
    def left(self, k: int) -> float:
        if k == 0:
            return self.at[0]
        return formula_at(self.pieces[k - 1], self.breaks[k])

    def right(self, k: int) -> float:
        if k == len(self.breaks) - 1:
            return self.at[k]
        return formula_at(self.pieces[k], self.breaks[k])

    @cached_property
    def sup_bound(self) -> float:
        best = max(abs(x) for x in self.at)
        for piece, u, v in zip(self.pieces, self.breaks, self.breaks[1:]):
            best = max(best, sum(t.sup_on(u, v) for t in piece))
        return best

    @cached_property
    def variation_bound(self) -> float:
        if self.is_step:
            on = [piece[0].c for piece in self.pieces]
            return math.fsum(abs(d - c) + abs(c1 - d)
                             for d, c, c1 in zip(on, self.at, self.at[1:]))
        total = 0.0
        for k, (piece, u, v) in enumerate(zip(self.pieces, self.breaks, self.breaks[1:])):
            total += sum(t.slope_on(u, v) for t in piece) * (v - u)
            total += abs(self.right(k) - self.at[k]) + abs(self.at[k + 1] - self.left(k + 1))
        return total


def step_model(nodes, at, on) -> Model:
    return Model(tuple(nodes), tuple(at), tuple([Mono(d, 0.0)] for d in on))


def value_at(model: Model, t: float) -> float:
    """Point value by linear scan (no bisection, so no shared logic)."""
    for k, x in enumerate(model.breaks):
        if x == t:
            return model.at[k]
        if x > t:
            return formula_at(model.pieces[k - 1], t)
    raise ValueError(f"{t!r} outside the model")


def left_limit_at(model: Model, t: float) -> float:
    for k, x in enumerate(model.breaks):
        if x >= t:
            return formula_at(model.pieces[k - 1], t)
    raise ValueError(f"{t!r} outside the model")


def right_limit_at(model: Model, t: float) -> float:
    for k, x in enumerate(model.breaks):
        if x > t:
            return formula_at(model.pieces[k - 1], t)
    raise ValueError(f"{t!r} outside the model")


# ----------------------------------------------------------------------
# Exact step-step integrals.

def _walk(model: Model, nodes):
    """(value at node, value on the piece right of node) for every node
    of a refinement of the model's breaks, by a two-pointer walk."""
    at, on = [], []
    k = 0
    last = len(model.breaks) - 1
    for x in nodes:
        while k < last and model.breaks[k + 1] <= x:
            k += 1
        if model.breaks[k] == x:
            at.append(model.at[k])
        else:
            at.append(model.pieces[k][0].c)
        on.append(model.pieces[min(k, last - 1)][0].c)
    return at, on


def _exact_dot(pairs) -> Fraction:
    """sum of x * (y1 - y2) over (x, y1, y2) float triples, exactly: every
    float is an integer over a power of two, so the sum is one integer
    over the largest such power."""
    parts = []
    for x, y1, y2 in pairs:
        nx, dx = x.as_integer_ratio()
        for y, sign in ((y1, 1), (y2, -1)):
            ny, dy = y.as_integer_ratio()
            parts.append((sign * nx * ny, (dx * dy).bit_length() - 1))
    if not parts:
        return Fraction(0)
    top = max(e for _, e in parts)
    return Fraction(sum(n << (top - e) for n, e in parts), 1 << top)


def step_step_exact(f: Model, g: Model, kind: str):
    """Exact I(f, dg) of two step models as a Fraction, together with
    the number of nodes of the common refinement."""
    nodes = sorted(set(f.breaks) | set(g.breaks))
    f_at, f_on = _walk(f, nodes)
    g_at, g_on = _walk(g, nodes)
    m = len(nodes) - 1
    if kind == "D":
        triples = ((f_on[k], g_at[k + 1], g_at[k]) for k in range(m))
    else:
        triples = ((f_at[k], g_at[m] if k == m else g_on[k], g_at[0] if k == 0 else g_on[k - 1])
                   for k in range(m + 1))
    return _exact_dot(t for t in triples if t[1] != t[2]), len(nodes)


def allowance_scale(f: Model, g: Model) -> float:
    """A bound on the sum of |terms| that any node walk or indicator
    decomposition of the step-pair sum adds up."""
    return 2.0 * ((f.sup_bound + f.variation_bound + abs(f.at[0]))
                  * (g.sup_bound + g.variation_bound + abs(g.at[0])))


def rounding_allowance(f: Model, g: Model, n_terms: int, extra_scale: float = 0.0) -> float:
    """gamma_n times ``allowance_scale(f, g)`` plus ``extra_scale``."""
    return gamma(n_terms) * (allowance_scale(f, g) + extra_scale)


# ----------------------------------------------------------------------
# Closed-form piece integrals.

def _mono_wave(n: int, c: float, w: Wave, u: float, v: float):
    """int_u^v c t**n * w(t) dt for integer n >= 0, with its rounding
    bound, from the antiderivative of t**n e^{i(freq t + phase)}."""
    om = w.freq
    if om == 0:
        raise ValueError("zero-frequency wave")

    def anti(t: float):
        acc = 0j
        mag = 0.0
        fact = 1.0
        for k in range(n + 1):
            term = ((-1) ** k) * fact * t ** (n - k) / (1j * om) ** (k + 1)
            acc += term
            mag += abs(term)
            fact *= n - k
        e = cmath.exp(1j * (om * t + w.phase))
        return acc * e, mag

    fu, mu = anti(u)
    fv, mv = anti(v)
    diff = fv - fu
    part = diff.real if w.cos else diff.imag
    scale = abs(c * w.amp)
    return c * w.amp * part, gamma(8 * (n + 4)) * scale * (mu + mv)


def _piece_integral(f_terms, g_terms, u: float, v: float):
    """int_u^v f(t) g'(t) dt and its rounding bound."""
    total, err = [], 0.0
    for gt in g_terms:
        for dg in gt.deriv():
            for ft in f_terms:
                if isinstance(ft, Mono) and isinstance(dg, Mono):
                    q = ft.p + dg.p + 1.0
                    hi, lo = v ** q, u ** q
                    val = ft.c * dg.c * (hi - lo) / q
                    total.append(val)
                    err += gamma(12) * abs(ft.c * dg.c) * (abs(hi) + abs(lo)) / q
                elif isinstance(ft, Mono) or isinstance(dg, Mono):
                    mono, wave = (ft, dg) if isinstance(ft, Mono) else (dg, ft)
                    n = int(mono.p)
                    if n != mono.p:
                        raise ValueError("non-integer power times a sinusoid has no closed form here")
                    val, e = _mono_wave(n, mono.c, wave, u, v)
                    total.append(val)
                    err += e
                else:
                    raise ValueError("sinusoid times sinusoid is not needed by the workloads")
    return math.fsum(total), err + gamma(len(total) + 1) * sum(abs(x) for x in total)


def integral(f: Model, g: Model, kind: str):
    """I(f, dg) for kind 'K', 'Y' or 'D' as (value, rounding bound).

    Exact (correctly rounded, bound 0) when both models are steps.
    """
    if f.breaks[0] != g.breaks[0] or f.breaks[-1] != g.breaks[-1]:
        raise ValueError("models live on different intervals")
    if f.is_step and g.is_step:
        exact, _ = step_step_exact(f, g, kind)
        return float(exact), 0.0
    nodes = sorted(set(f.breaks) | set(g.breaks))
    m = len(nodes) - 1
    terms, err = [], 0.0
    fi = gi = 0
    for k in range(m):
        u, v = nodes[k], nodes[k + 1]
        while f.breaks[fi + 1] <= u:
            fi += 1
        while g.breaks[gi + 1] <= u:
            gi += 1
        val, e = _piece_integral(f.pieces[fi], g.pieces[gi], u, v)
        terms.append(val)
        err += e
    f_pos = {x: k for k, x in enumerate(f.breaks)}
    g_pos = {x: k for k, x in enumerate(g.breaks)}
    for tau in nodes:
        fk, gk = f_pos.get(tau), g_pos.get(tau)
        if gk is None:
            continue  # g continuous at tau: no atom
        g_minus, g_at, g_plus = g.left(gk), g.at[gk], g.right(gk)
        if fk is None:
            f_val = value_at(f, tau)
            f_minus = f_plus = f_val
        else:
            f_val, f_minus, f_plus = f.at[fk], f.left(fk), f.right(fk)
        if kind == "D":
            pieces = (f_minus * (g_at - g_minus), f_plus * (g_plus - g_at))
        else:
            pieces = (f_val * (g_plus - g_minus),)
        for x in pieces:
            terms.append(x)
            err += gamma(4) * abs(x)
    total = math.fsum(terms)
    err += gamma(len(terms) + 1) * sum(abs(x) for x in terms)
    return total, err
