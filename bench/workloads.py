"""The four benchmark workloads: seeded inputs, the timed operation and
the check of its output against ``reference``.

Every workload builds a pool of inputs from its seed during set-up and
then issues operations one at a time (a closed loop with one client).
Discrete choices that set an operation's cost -- tolerance, argument
order, step-function size, pair type, job command -- rotate
through a fixed schedule, and the seed draws everything else, so two
seeds give different inputs with the same mix of work.

``cycle`` is the length of that schedule; ``prepare(i)`` returns the
zero-argument callable that is timed; ``expect_all()`` computes, after
set-up and before the first op, the reference for every input the ops
use and then drops the benchmark's own copies of the inputs, so that
nothing of the benchmark grows while ops run; ``check(i, out, exc)``
runs untimed and returns one of ``"ok"``, ``"refused"`` (the library
declined with ApproximationError) or ``"failed"`` together with a
description for the report.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import reference as ref

IV = (0.0, 1.0)
KINDS = ("K", "Y", "D")


def _lib():
    import stieltjes
    return stieltjes


def _kind(lib, letter: str):
    return lib.IntegralKind.from_letter(letter)


# ----------------------------------------------------------------------
# Function descriptions.  Each class keeps the numbers of one function
# and builds from them the library object (``build``), the reference
# model (``model``) and, where the CLI needs it, the job text (``text``).

def _fmt(x: float) -> str:
    return repr(float(x))


def _formula(rng: random.Random, family: str):
    """(family, params) for one catalog formula on a piece in [0, 1]."""
    sign = rng.choice((-1.0, 1.0))
    if family == "affine":
        return family, {"slope": sign * rng.uniform(0.5, 3.0), "intercept": rng.uniform(-1.0, 1.0)}
    if family == "sin":
        return family, {"freq": rng.uniform(1.0, 6.0), "amp": rng.uniform(0.3, 1.5),
                        "phase": rng.uniform(0.0, 6.0)}
    return family, {"exponent": rng.uniform(1.0, 3.0), "scale": sign * rng.uniform(0.5, 2.0)}


def _scaled_formula(spec, factor: float):
    family, p = spec
    p = dict(p)
    if family == "affine":
        p["slope"] *= factor
        p["intercept"] *= factor
    elif family == "sin":
        p["amp"] *= factor
    else:
        p["scale"] *= factor
    return family, p


def _terms(spec):
    family, p = spec
    if family == "affine":
        return [ref.Mono(p["slope"], 1.0), ref.Mono(p["intercept"], 0.0)]
    if family == "sin":
        return [ref.Wave(p["amp"], p["freq"], p["phase"])]
    return [ref.Mono(p["scale"], p["exponent"])]


def _lib_formula(lib, spec):
    family, p = spec
    if family == "affine":
        return lib.Affine(p["slope"], p["intercept"])
    if family == "sin":
        return lib.SinWave(p["freq"], p["amp"], p["phase"])
    return lib.Power(p["exponent"], p["scale"])


_FORMULA_KEYS = {"affine": ("slope", "intercept"), "sin": ("freq", "amp", "phase"),
                 "power": ("exponent", "scale")}


def _formula_text(spec) -> str:
    family, p = spec
    return f"{family}(" + ", ".join(f"{k}: {_fmt(p[k])}" for k in _FORMULA_KEYS[family]) + ")"


class Piecewise:
    """A lipschitz_pieces function: breaks, formulas, values at breaks."""

    def __init__(self, breaks, specs, at):
        self.breaks, self.specs, self.at = tuple(breaks), tuple(specs), tuple(at)

    @classmethod
    def draw(cls, rng: random.Random, families, lipschitz_mass: float,
             variation: float) -> "Piecewise":
        """Random pieces scaled so that sum(L_i * width_i) is
        ``lipschitz_mass`` (this fixes the cells of its approximants) and
        jumps at the ends topped up so that the certified variation is
        ``variation`` (this fixes the cells of its partner's)."""
        lib = _lib()
        n = len(families)
        while True:
            inner = sorted(rng.uniform(0.1, 0.9) for _ in range(n - 1))
            if any(y - x < 0.05 for x, y in zip(inner, inner[1:])):
                continue
            breaks = [0.0] + inner + [1.0]
            specs = [_formula(rng, fam) for fam in families]
            c = lipschitz_mass / sum(_lib_formula(lib, s).lipschitz_on(u, v) * (v - u)
                                     for s, u, v in zip(specs, breaks, breaks[1:]))
            specs = [_scaled_formula(s, c) for s in specs]
            m = ref.Model(tuple(breaks), tuple(0.0 for _ in breaks),
                          tuple(_terms(s) for s in specs))
            at = [m.right(0)] + [m.left(k) + rng.uniform(-0.1, 0.1) * c for k in range(1, n)]
            at.append(m.left(n))
            short = variation - cls(breaks, specs, at).build(lib).variation_bound
            if short > 0:
                share = rng.random()
                at[0] += rng.choice((-1.0, 1.0)) * share * short
                at[-1] += rng.choice((-1.0, 1.0)) * (1.0 - share) * short
                return cls(breaks, specs, at)

    def scaled_to_bv(self, bv: float) -> "Piecewise":
        """This function times the factor that makes
        |f(a)| + |f(b)| + variation equal ``bv``."""
        c = bv / (abs(self.at[0]) + abs(self.at[-1]) + self.build(_lib()).variation_bound)
        return Piecewise(self.breaks, [_scaled_formula(s, c) for s in self.specs],
                         [x * c for x in self.at])

    def model(self) -> ref.Model:
        return ref.Model(self.breaks, self.at, tuple(_terms(s) for s in self.specs))

    def build(self, lib):
        return lib.PiecewiseLipschitz.from_formulas(
            lib.Interval(*IV), self.breaks, [_lib_formula(lib, s) for s in self.specs], self.at)

    def text(self) -> str:
        return ("lipschitz_pieces[0.0, 1.0]{breaks: " + ", ".join(map(_fmt, self.breaks))
                + "; formulas: " + ", ".join(_formula_text(s) for s in self.specs)
                + "; at: " + ", ".join(map(_fmt, self.at)) + "}")


class Monotone:
    """A monotone_jumps function: increasing affine or integer-power base
    plus jumps (t, pre, post)."""

    def __init__(self, base, jumps):
        self.base, self.jumps = base, tuple(jumps)

    @classmethod
    def draw(cls, rng: random.Random, base_family: str, jump_total: float) -> "Monotone":
        if base_family == "affine":
            base = ("affine", {"slope": 1.0, "intercept": rng.uniform(-1.0, 1.0)})
        else:
            base = ("power", {"exponent": 2.0 if base_family == "power2" else 3.0, "scale": 1.0})
        ts = sorted(rng.uniform(0.1, 0.9) for _ in range(2))
        shares = [rng.random() for _ in range(4)]
        s = sum(shares)
        gaps = [jump_total * x / s for x in shares]
        return cls(base, [(ts[0], gaps[0], gaps[1]), (ts[1], gaps[2], gaps[3])])

    def model(self) -> ref.Model:
        base = _terms(self.base)
        breaks = [0.0] + [t for t, _, _ in self.jumps] + [1.0]
        level, at, pieces = 0.0, [ref.formula_at(base, 0.0)], []
        for t, pre, post in self.jumps:
            pieces.append(base + [ref.Mono(level, 0.0)])
            at.append(ref.formula_at(base, t) + level + pre)
            level += pre + post
        pieces.append(base + [ref.Mono(level, 0.0)])
        at.append(ref.formula_at(base, 1.0) + level)
        return ref.Model(tuple(breaks), tuple(at), tuple(pieces))

    def build(self, lib):
        return lib.MonotoneFunction(lib.Interval(*IV), _lib_formula(lib, self.base), self.jumps)


class Step:
    """A step function: nodes, values at nodes, values on open pieces."""

    def __init__(self, nodes, at, on):
        self.nodes, self.at, self.on = list(nodes), list(at), list(on)

    @classmethod
    def draw(cls, rng: random.Random, n_nodes: int, values=None, nodes=None) -> "Step":
        """Random step function; ``values`` draws one value (default a
        uniform float in [-5, 5]); a value repeats its predecessor a
        quarter of the time so canonicalization has nodes to merge."""
        if nodes is None:
            inner = sorted({rng.random() for _ in range(n_nodes - 2)} - {0.0})
            nodes = [0.0] + inner + [1.0]
        draw = values or (lambda: rng.uniform(-5.0, 5.0))

        def series(k):
            out, prev = [], None
            for _ in range(k):
                prev = prev if prev is not None and rng.random() < 0.25 else draw()
                out.append(prev)
            return out
        return cls(nodes, series(len(nodes)), series(len(nodes) - 1))

    def model(self) -> ref.Model:
        return ref.step_model(self.nodes, self.at, self.on)

    def build(self, lib):
        return lib.StepFunction(lib.Interval(*IV), self.nodes, self.at, self.on)

    def text(self) -> str:
        return ("step[0.0, 1.0]{nodes: " + ", ".join(map(_fmt, self.nodes))
                + "; at: " + ", ".join(map(_fmt, self.at))
                + "; on: " + ", ".join(map(_fmt, self.on)) + "}")


class Formula:
    """A one-piece catalog formula (the DSL's affine/sin/power shorthand)."""

    def __init__(self, spec):
        self.spec = spec

    def model(self) -> ref.Model:
        terms = _terms(self.spec)
        return ref.Model(IV, (ref.formula_at(terms, 0.0), ref.formula_at(terms, 1.0)), (terms,))

    def build(self, lib):
        return lib.PiecewiseLipschitz.from_formulas(
            lib.Interval(*IV), IV, (_lib_formula(lib, self.spec),))

    def text(self) -> str:
        family, p = self.spec
        entries = "; ".join(f"{k}: {_fmt(p[k])}" for k in _FORMULA_KEYS[family])
        return f"{family}[0.0, 1.0]{{{entries}}}"


# ----------------------------------------------------------------------
# Shared checking helpers.

class Tally:
    """Counts a workload keeps beyond ok/failed/refused, for the trace."""

    def __init__(self):
        self.step_pairs = 0
        self.exact_misses = 0
        self.bound_use = []

    def step_pair(self, value: float, exact_float: float) -> None:
        self.step_pairs += 1
        self.exact_misses += value != exact_float


def _check_value(value, error_bound, expected, ref_err, allowance):
    gap = abs(value - expected)
    limit = error_bound + allowance + ref_err
    if not gap <= limit:
        return f"|value - reference| = {gap:.3e} > {limit:.3e}"
    return None


# ----------------------------------------------------------------------
# limit_route

# P is piecewise-Lipschitz, M monotone with jumps, Ps a P small enough
# that the integrator is the cheaper side to approximate.  P and M are
# sized so that approximating either costs about the same number of
# cells, which keeps each tolerance's latencies in one cluster.
FORMS_P_APPROXIMATED = ("integrate P M", "by_parts M P")
FORMS_M_APPROXIMATED = ("integrate M P", "by_parts P M", "integrate Ps M")
EVEN_FORMS = FORMS_P_APPROXIMATED + FORMS_M_APPROXIMATED[:2]   # alike in cost
ALL_FORMS = EVEN_FORMS + FORMS_M_APPROXIMATED[2:]


def limit_cycle(c: int):
    """The (tolerance, form) slots of cycle c: 8 ops at 1e-3, 6 at 1e-4
    and 2 at the default tolerance, one of which refuses fast and one
    slowly.  No traffic source fixes these weights; they are set so that,
    sorted by latency, the median lies inside the 1e-3 cluster and both
    p75 and p90 inside the dear 1e-4 cluster, whichever the op count
    picks.  Equal thirds would put the median on the edge between the
    1e-3 and 1e-4 clusters, where it jumps from run to run."""
    extra = [EVEN_FORMS[(c + k) % 4] for k in range(4)]
    return ([("1e-3", f) for f in ALL_FORMS + tuple(extra[:3])]
            + [("1e-4", f) for f in ALL_FORMS + (extra[3],)]
            + [("default", FORMS_P_APPROXIMATED[c % 2]),
               ("default", FORMS_M_APPROXIMATED[c % 3])])


PIECE_FAMILIES = (("affine", "sin"), ("sin", "power"), ("power", "affine"),
                  ("affine", "sin", "power"), ("sin", "power", "affine", "sin"))
MONO_BASES = ("affine", "power2", "power3")
P_LIPSCHITZ_MASS = 0.6
P_VARIATION = 1.0
PS_BV = 0.4
M_JUMPS = 0.5
LIMIT_CYCLES = 12      # ops then repeat; a run reaches about half of them


class LimitRoute:
    """Certified ``integrate`` and ``by_parts`` on non-step pairs."""

    name = "limit_route"
    cycle = len(limit_cycle(0))

    def __init__(self, seed: int):
        self.lib = lib = _lib()
        rng = random.Random(seed)
        self.schedule = []
        for c in range(LIMIT_CYCLES):
            cycle = [(tol, form, KINDS[(c + j) % 3]) for j, (tol, form) in enumerate(limit_cycle(c))]
            rng.shuffle(cycle)
            self.schedule.extend(cycle)
        self.pairs = []    # one pair of functions per op of the schedule
        for i in range(len(self.schedule)):
            p = Piecewise.draw(rng, PIECE_FAMILIES[i % len(PIECE_FAMILIES)],
                               P_LIPSCHITZ_MASS, P_VARIATION)
            ps = Piecewise.draw(rng, PIECE_FAMILIES[(i + 2) % len(PIECE_FAMILIES)],
                                P_LIPSCHITZ_MASS, P_VARIATION).scaled_to_bv(PS_BV)
            m = Monotone.draw(rng, MONO_BASES[i % len(MONO_BASES)], M_JUMPS)
            self.pairs.append({"P": (p.build(lib), p.model()),
                               "Ps": (ps.build(lib), ps.model()),
                               "M": (m.build(lib), m.model())})
        self.tally = Tally()
        self._refs = []

    def _op(self, i: int):
        tol, form, kind = self.schedule[i % len(self.schedule)]
        pair = self.pairs[i % len(self.pairs)]
        call, f_name, g_name = form.split()
        return tol, call, pair[f_name], pair[g_name], kind

    def expect_all(self) -> None:
        """The reference value of every op's integral and the scale of its
        rounding allowance, with the edge terms f(b)g(b) and f(a)g(a)
        that by_parts adds; then the models go."""
        for i in range(len(self.schedule)):
            _, call, f, g, kind = self._op(i)
            edges = 0.0
            if call == "by_parts":
                edges = abs(f[1].at[-1] * g[1].at[-1]) + abs(f[1].at[0] * g[1].at[0])
            expected, ref_err = ref.integral(f[1], g[1], kind)
            self._refs.append((expected, ref_err, ref.allowance_scale(f[1], g[1]) + edges))
        self.pairs = [{k: (fn, None) for k, (fn, _) in pair.items()} for pair in self.pairs]

    def describe(self, i: int) -> str:
        tol, form, kind = self.schedule[i % len(self.schedule)]
        call, f, g = form.split()
        return f"{call}({f}, {g}, kind={kind}, tol={tol}) on pair {i % len(self.pairs)}"

    def prepare(self, i: int):
        tol, call, f, g, kind = self._op(i)
        lib = self.lib
        fn = lib.integrate if call == "integrate" else lib.by_parts
        k = _kind(lib, kind)
        if tol == "default":
            return lambda: fn(f[0], g[0], k)
        t = float(tol)
        return lambda: fn(f[0], g[0], k, t)

    def check(self, i: int, out, exc):
        tol, call, f, g, kind = self._op(i)
        if exc is not None:
            if isinstance(exc, self.lib.ApproximationError):
                return "refused", f"{self.describe(i)}: {exc}"
            return "failed", f"{self.describe(i)}: {type(exc).__name__}: {exc}"
        t = 1e-9 if tol == "default" else float(tol)
        expected, ref_err, scale = self._refs[i % len(self._refs)]
        cells = out.diagnostics.approximant_pieces or 1
        allowance = ref.gamma(3 * cells + 16) * scale
        problem = _check_value(out.value, out.error_bound, expected, ref_err, allowance)
        if problem is None and not out.error_bound <= t:
            problem = f"error_bound {out.error_bound!r} exceeds tol {t!r}"
        if problem is not None:
            return "failed", f"{self.describe(i)}: {problem}"
        self.tally.bound_use.append(out.error_bound / t)
        return "ok", None


# ----------------------------------------------------------------------
# step_algebra

# Node counts on a log-uniform grid from 8 to 20000.  The grid is fixed
# (the seed draws everything else) because the tail latency is set by
# the few largest inputs; 25 sizes put the median and p90 in the middle
# of one size's block of samples.  Sizes up to 2000 nodes get several
# inputs, used in turn, so that no single draw sets the median.
SIZES = tuple(round(8 * 2500 ** (j / 24)) for j in range(25))


def _inputs_per_size(n: int) -> int:
    return max(1, min(8, round(2000 / n)))
SCALARS = (0.5, 2.0, -1.0, 0.25, 4.0, -0.5)
READS = 16


def _dyadic(rng: random.Random) -> float:
    return rng.randint(-40, 40) / 8.0


def _canonical(nodes, at, on):
    """Drop interior nodes invisible to the function (own implementation)."""
    keep_n, keep_at, keep_on = [nodes[0]], [at[0]], []
    for k in range(1, len(nodes)):
        if k < len(nodes) - 1 and at[k] == on[k - 1] == on[k]:
            continue
        keep_on.append(on[k - 1])
        keep_n.append(nodes[k])
        keep_at.append(at[k])
    return keep_n, keep_at, keep_on


class StepAlgebra:
    """Each op computes D = (A + s*B) - A, reads D at node and interior
    points, and integrates D against a partner P in K, Y and D.

    A and B take dyadic values (multiples of 1/8 in [-5, 5]) and s is a
    power of two up to sign, so every sum is exact in floating point,
    D equals s*B exactly, and the nodes of A that B does not share all
    have to be merged away.  s*B cancels A on about half of the pieces
    where it can, so A + s*B merges too.  P takes arbitrary float values,
    so its integrals round."""

    name = "step_algebra"
    cycle = len(SIZES)

    def __init__(self, seed: int):
        self.lib = lib = _lib()
        rng = random.Random(seed)
        self.items = []
        for n in SIZES:
            row = []
            for _ in range(_inputs_per_size(n)):
                a = Step.draw(rng, n, values=lambda: _dyadic(rng))
                row.append(self._item(rng, lib, a, n))
            self.items.append(row)
        self.order = []
        for _ in range(64):
            cycle = list(range(len(SIZES)))
            rng.shuffle(cycle)
            self.order.extend(cycle)
        self.tally = Tally()

    @staticmethod
    def _item(rng, lib, a: Step, n: int):
        inner = a.nodes[1:-1]
        scalar = rng.choice(SCALARS)
        shared = sorted(rng.sample(inner, len(inner) // 2))
        fresh = {rng.random() for _ in range(max(1, n // 4))} - set(a.nodes) - {0.0}
        b_nodes = [0.0] + sorted(set(shared) | fresh) + [1.0]
        b = Step.draw(rng, 0, values=lambda: _dyadic(rng), nodes=b_nodes)
        # Make s*B cancel A on about half of B's pieces that lie inside one
        # piece of A, and at half of B's own nodes there, so that A + s*B
        # has silent nodes to merge.  -a/s stays exact: s is a power of 2.
        a_nodes = set(a.nodes)
        k_a = 0
        for k in range(len(b_nodes) - 1):
            u, v = b_nodes[k], b_nodes[k + 1]
            while a.nodes[k_a + 1] <= u:
                k_a += 1
            if a.nodes[k_a + 1] >= v and rng.random() < 0.5:
                b.on[k] = -a.on[k_a] / scalar
                if u not in a_nodes and k > 0 and rng.random() < 0.5:
                    b.at[k] = -a.on[k_a] / scalar
        p_nodes = [0.0] + sorted(set(rng.sample(inner, len(inner) // 4))
                                 | {rng.random() for _ in range(max(1, n // 4))} - {0.0}) + [1.0]
        p = Step.draw(rng, 0, nodes=p_nodes)
        pts = [rng.choice(b_nodes[1:-1] or [0.5]) for _ in range(READS // 2)]
        pts += [rng.uniform(0.0, 1.0) for _ in range(READS // 2)]
        return {"A": a.build(lib), "B": b.build(lib), "P": p.build(lib), "s": scalar,
                "b": b, "p": p, "points": pts, "n": n}

    def _item_for(self, i: int):
        s = self.order[i % len(self.order)]
        row = self.items[s]
        return s, row[(i // len(SIZES)) % len(row)]

    def describe(self, i: int) -> str:
        s, item = self._item_for(i)
        return f"size {item['n']} (s={item['s']}) op {i}"

    def prepare(self, i: int):
        _, item = self._item_for(i)
        lib = self.lib
        A, B, P, s, pts = item["A"], item["B"], item["P"], item["s"], item["points"]
        kinds = [_kind(lib, k) for k in KINDS]

        def op():
            d = (A + s * B) - A
            reads = []
            for t in pts:
                reads.append(d.value(t))
                reads.append(d.left_limit(t) if t > 0.0 else None)
                reads.append(d.right_limit(t) if t < 1.0 else None)
            return d, reads, [lib.integrate(d, P, k) for k in kinds]
        return op

    def expect_all(self) -> None:
        """Each input's canonical s*B, its point reads and its exact
        integrals against P; then the Step copies of B and P go."""
        for row in self.items:
            for item in row:
                b, s = item.pop("b"), item["s"]
                nodes, at, on = _canonical(b.nodes, [s * x for x in b.at], [s * x for x in b.on])
                model = ref.step_model(nodes, at, on)
                reads = []
                for t in item["points"]:
                    reads.append(ref.value_at(model, t))
                    reads.append(ref.left_limit_at(model, t) if t > 0.0 else None)
                    reads.append(ref.right_limit_at(model, t) if t < 1.0 else None)
                pm = item.pop("p").model()
                integrals = []
                for k in KINDS:
                    exact, n_nodes = ref.step_step_exact(model, pm, k)
                    integrals.append((float(exact),
                                      ref.rounding_allowance(model, pm, 3 * n_nodes + 8)))
                item["expected"] = ((tuple(nodes), tuple(at), tuple(on)), reads, integrals)

    def check(self, i: int, out, exc):
        if exc is not None:
            return "failed", f"{self.describe(i)}: {type(exc).__name__}: {exc}"
        _, item = self._item_for(i)
        d, reads, results = out
        shape, want_reads, integrals = item["expected"]
        if (d.nodes, d.node_values, d.interior_values) != shape:
            return "failed", f"{self.describe(i)}: (A + s*B) - A is not the canonical s*B"
        if reads != want_reads:
            return "failed", f"{self.describe(i)}: point reads differ from the reference"
        for k, res, (exact, allowance) in zip(KINDS, results, integrals):
            self.tally.step_pair(res.value, exact)
            problem = _check_value(res.value, res.error_bound, exact, 0.0, allowance)
            if problem:
                return "failed", f"{self.describe(i)} kind {k}: {problem}"
        return "ok", None


# ----------------------------------------------------------------------
# oracle_crosscheck

ORACLE_POOL = 200      # pairs of each type
DECILES = 10
PAIRS_PER_OP = 3
PAIR_TYPES = ("step/step", "formula/step", "step/formula")
ORACLE_TOLS = (1e-8, 1e-9)
FORMULA_FAMILIES = ("affine", "sin", "power")


def _small_step(rng: random.Random) -> Step:
    # A fixed node count keeps the oracles' cost per pair alike.
    return Step.draw(rng, 7)


def _closest_nodes(f, g) -> float:
    nodes = sorted(set(g.nodes) | set(getattr(f, "nodes", ())))
    return min(y - x for x, y in zip(nodes, nodes[1:]))


# oracle_gauge can converge on a wrong K value when two nodes lie closer
# than its level-1 override width, 16**-2 of the interval: its level-0
# and level-1 sums then agree on the same wrong value.  The ops take
# only pairs whose nodes lie at least that far apart; the defect is
# checked on the input below after every run instead (``known_defect``).
GAUGE_MIN_GAP = 16.0 ** -2
CLOSE_NODES_PAIR = (
    Formula(("sin", {"freq": 3.409498075941292, "amp": 0.9053204742519931,
                     "phase": 0.5713385137132037})),
    Step([0.0, 0.21088321502013152, 0.4165531740114028, 0.6325252089185363,
          0.7675461022971052, 0.7711094513936149, 1.0],
         [0.6461357897219351, 0.6644690136415345, -1.253470669764274, -4.715568709114141,
          -2.8129674405657035, -2.8129674405657035, -2.8129674405657035],
         [3.036574066734369, -2.6263464257956914, 0.9376813640186645, 2.3520487337971687,
          2.227817508642059, 3.7736308010238933]))


class OracleCrosscheck:
    """One op cross-checks three pairs: ``oracle_refinement`` in Y and in
    D, then ``oracle_gauge`` in K, on each.  Pairs alternate between two
    small step functions and a catalog formula f against a step g.  About
    one pair in seven costs the gauge oracle twice the others; three
    pairs per op spread those over the ops instead of leaving the p90 on
    the edge between the two groups.

    The gauge oracle is much slower on pairs whose nodes lie close
    together, so each type's pairs are a systematic sample of ten times
    as many candidates sorted by their closest two nodes, and the ops
    take one pair from each decile in turn: every run sees the same share
    of close pairs, as the candidates have it.  Candidates with two nodes
    closer than ``GAUGE_MIN_GAP`` are not drawn (see there).

    A converged oracle value must lie within 2 tol of the reference, the
    agreement the acceptance suite asks of the two oracles.  ``integrate``
    runs on each pair as a check only, in ``expect_all``."""

    name = "oracle_crosscheck"
    cycle = 2 * DECILES   # ops, so 3 times over both types, all deciles, both tols

    def __init__(self, seed: int):
        self.lib = lib = _lib()
        rng = random.Random(seed)
        self.pairs = {}
        for t, ptype in enumerate(PAIR_TYPES[:2]):
            candidates, i = [], 0
            while len(candidates) < DECILES * ORACLE_POOL:
                f = _small_step(rng) if ptype == "step/step" else \
                    Formula(_formula(rng, FORMULA_FAMILIES[i % 3]))
                g = _small_step(rng)
                gap = _closest_nodes(f, g)
                if gap >= GAUGE_MIN_GAP:
                    candidates.append((gap, i, f, g))
                i += 1
            candidates.sort(key=lambda c: c[:2])
            chosen = candidates[rng.randrange(DECILES)::DECILES]
            self.pairs[t] = [(ptype, (f.build(lib), f.model()), (g.build(lib), g.model()))
                             for _, _, f, g in chosen]
        self.tally = Tally()
        self._refs, self._allowance = {}, {}

    def _slot(self, k: int):
        """The k-th pair in turn: types alternate, deciles rotate."""
        t, j = k % 2, k // 2
        per_decile = ORACLE_POOL // DECILES
        p = (j % DECILES) * per_decile + (j // DECILES) % per_decile
        return self.pairs[t][p], ORACLE_TOLS[(j + j // DECILES) % 2], (t, p)

    def _slots(self, i: int):
        return [self._slot(PAIRS_PER_OP * i + k) for k in range(PAIRS_PER_OP)]

    def describe(self, i: int) -> str:
        return "oracles on " + ", ".join(
            f"{ptype} pair {p} (tol={tol})" for (ptype, _, _), tol, (_, p) in self._slots(i))

    def prepare(self, i: int):
        lib = self.lib
        y, d = _kind(lib, "Y"), _kind(lib, "D")
        slots = self._slots(i)

        def op():
            return [{"Y": lib.oracle_refinement(f[0], g[0], y, tol=tol, seed=i),
                     "D": lib.oracle_refinement(f[0], g[0], d, tol=tol, seed=i),
                     "K": lib.oracle_gauge(f[0], g[0], tol=tol, seed=i)}
                    for (_, f, g), tol, _ in slots]
        return op

    def expect_all(self) -> None:
        """For every pair: the reference in each kind, the verdict of
        ``integrate`` against it, and the oracles' rounding allowance
        (that of compensated summation, which the sums module documents);
        then the models go."""
        for t, pairs in self.pairs.items():
            for p, (ptype, f, g) in enumerate(pairs):
                scale = f[1].sup_bound * g[1].variation_bound
                allowance = ref.rounding_allowance(
                    f[1], g[1], 3 * (len(f[1].breaks) + len(g[1].breaks)) + 8)
                for kind in KINDS:
                    expected, ref_err = ref.integral(f[1], g[1], kind)
                    res = self.lib.integrate(f[0], g[0], _kind(self.lib, kind))
                    problem = _check_value(res.value, res.error_bound, expected, ref_err,
                                           allowance)
                    if ptype == "step/step":
                        self.tally.step_pair(res.value, expected)
                    self._refs[(t, p), kind] = (expected, ref_err, problem)
                self._allowance[t, p] = (ref.gamma(4) + 2 * ref.UNIT_ROUNDOFF) * scale
            self.pairs[t] = [(ptype, (f[0], None), (g[0], None)) for ptype, f, g in pairs]

    def check(self, i: int, out, exc):
        if exc is not None:
            return "failed", f"{self.describe(i)}: {type(exc).__name__}: {exc}"
        for ((ptype, f, g), tol, p), reports in zip(self._slots(i), out):
            where = f"oracles at tol={tol} on {ptype} pair {p[1]}"
            allowance = self._allowance[p]
            for kind, report in reports.items():
                expected, ref_err, problem = self._refs[p, kind]
                if problem:
                    return "failed", f"{where}: integrate {kind}: {problem}"
                if not report.converged:
                    return "failed", (f"{where}: {kind} oracle did not converge "
                                      f"(spread {report.achieved_spread:.3e})")
                problem = _check_value(report.value, 2 * tol, expected, ref_err, allowance)
                if problem:
                    return "failed", f"{where}: {kind} oracle: {problem}"
        return "ok", None

    def known_defect(self) -> str:
        """Run the gauge oracle, untimed, on the close-nodes pair the ops
        leave out, and say whether it still converges on a wrong value."""
        f, g = CLOSE_NODES_PAIR
        expected, _ = ref.integral(f.model(), g.model(), "K")
        report = self.lib.oracle_gauge(f.build(self.lib), g.build(self.lib), tol=1e-9, seed=135)
        state = "present" if report.converged and abs(report.value - expected) > 2e-9 \
            else "absent"
        return (f"{state}: oracle_gauge on two nodes {_closest_nodes(f, g):.4g} apart "
                f"(the ops keep them {GAUGE_MIN_GAP:g} apart) gave "
                f"{report.value!r} (converged {report.converged}) against "
                f"{expected!r}, for kind=K f={f.text()} g={g.text()}")


# ----------------------------------------------------------------------
# cli_jobs

# The mix of the acceptance CLI corpus (tests/test_acceptance.py) without
# its oracle jobs: each of its 14 valid jobs with the command and kind it
# uses (K where it names none), and each of its 12 malformed jobs that
# expect exit 2.  Its one exit-3 job, a refusal on a non-step pair, is
# left out: every valid job here is exact.
CLI_CYCLE = ("integrate K", "integrate D", "integrate Y", "integrate D", "integrate K",
             "integrate K", "integrate Y", "verify-main", "verify-main", "verify-main",
             "verify-main", "verify-bounds Y", "verify-bounds D", "verify-bounds K",
             "bad truncated", "bad kind", "bad order", "bad family", "bad field", "bad missing",
             "bad duplicate", "bad interval", "bad base", "bad jump", "bad tol", "bad seed")
CLI_POOL = 2 * len(CLI_CYCLE)


class CliJobs:
    """One ``python -m stieltjes.cli <command> --json <job>`` process per
    op, on exact pairs (a step function on at least one side)."""

    name = "cli_jobs"
    cycle = len(CLI_CYCLE)

    def __init__(self, seed: int, root: str, traced: bool = False):
        import stieltjes.cli  # noqa: F401  (what every job imports)
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.prefix = ([sys.executable, os.path.join(root, "bench", "cli_traced.py")] if traced
                       else [sys.executable, "-m", "stieltjes.cli"])
        rng = random.Random(seed)
        self.jobs = []
        for i in range(CLI_POOL):
            slot = CLI_CYCLE[i % len(CLI_CYCLE)]
            step = Step.draw(rng, rng.randint(3, 10))
            ptype = PAIR_TYPES[i % 3]
            if ptype == "step/step":
                other = Step.draw(rng, rng.randint(3, 10))
            elif i % 2:
                other = Formula(_formula(rng, FORMULA_FAMILIES[(i // 3) % 3]))
            else:
                other = Piecewise.draw(rng, PIECE_FAMILIES[i % 3], P_LIPSCHITZ_MASS,
                                       P_VARIATION)
            f, g = (other, step) if ptype == "formula/step" else (step, other)
            command, _, kind = slot.partition(" ")
            if command == "bad":
                self.jobs.append(self._malformed(rng, kind, f, g))
                continue
            kind = kind or "K"
            text = f"kind={kind} seed={rng.randrange(1000)} f={f.text()} g={g.text()}"
            self.jobs.append({"command": command, "text": text, "kind": kind,
                              "f": f.model(), "g": g.model(), "exit": 0,
                              "step_pair": ptype == "step/step"})
        self.tally = Tally()

    @staticmethod
    def _malformed(rng, how: str, f, g):
        """A job with the fault of one malformed corpus job."""
        ft, gt = f.text(), g.text()
        command = "integrate"
        if how == "truncated":
            text = f"f={ft} g={gt[:rng.randrange(len(gt) // 2, len(gt) - 1)]}"
        elif how == "kind":
            text = f"kind=Q f={ft} g={gt}"
        elif how == "order":
            text = f"f=step[0.0, 1.0]{{nodes: 0.0, 0.6, 0.4, 1.0; at: 0, 1, 2, 3; on: 1, 2, 3}} g={gt}"
        elif how == "family":
            text = f"f={ft} g=stair{gt[gt.index('['):]}"
        elif how == "field":
            text = f"transmogrify f={ft} g={gt}"
        elif how == "missing":
            text = f"f={ft}"
        elif how == "duplicate":
            text = f"f={ft} f={ft} g={gt}"
        elif how == "interval":
            text = f"f={ft} g=affine[0.0, 2.0]{{slope: 1.0}}"
        elif how == "base":
            text = f"f=monotone_jumps[0.0, 1.0]{{base: sin(freq: 1.0)}} g={gt}"
        elif how == "jump":
            text = (f"f=monotone_jumps[0.0, 1.0]{{base: affine(slope: 1.0); "
                    f"jumps: {rng.uniform(0.1, 0.9)!r}:-1.0:0.0}} g={gt}")
        elif how == "tol":
            text = f"tol={rng.choice(('0', '-1e-3'))} f={ft} g={gt}"
        else:
            command, text = "verify-main", f"seed={rng.randrange(100)}.5 f={ft} g={gt}"
        return {"command": command, "text": text, "exit": 2}

    def expect_all(self) -> None:
        """The reference and rounding allowance of every valid job; then
        its models go."""
        for job in self.jobs:
            if job["exit"] == 0:
                f, g = job.pop("f"), job.pop("g")
                kind = "K" if job["command"] == "verify-main" else job["kind"]
                expected, ref_err = ref.integral(f, g, kind)
                n = 3 * (len(f.breaks) + len(g.breaks)) + 8
                job["expected"] = (expected, ref_err, ref.rounding_allowance(f, g, n))

    def describe(self, i: int) -> str:
        job = self.jobs[i % len(self.jobs)]
        return f"{job['command']} {job['text'][:120]}"

    def prepare(self, i: int):
        job = self.jobs[i % len(self.jobs)]
        argv = self.prefix + [job["command"], "--json", job["text"]]

        def op():
            return subprocess.run(argv, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, check=False)
        return op

    def check(self, i: int, out, exc):
        job = self.jobs[i % len(self.jobs)]
        if exc is not None:
            return "failed", f"{self.describe(i)}: {type(exc).__name__}: {exc}"
        if out.returncode == 3:
            return "refused", f"{self.describe(i)}: exit 3"
        if out.returncode != job["exit"]:
            return "failed", f"{self.describe(i)}: exit {out.returncode}, wanted {job['exit']}"
        lines = out.stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError as exc:
            return "failed", f"{self.describe(i)}: bad JSON ({exc})"
        if not isinstance(report, dict):
            return "failed", f"{self.describe(i)}: no JSON report"
        if job["exit"] == 2:
            if set(report) != {"error"} or not isinstance(report["error"], str):
                return "failed", f"{self.describe(i)}: malformed job without an error report"
            return "ok", None
        if report.get("command") != job["command"] or "value" not in report:
            return "failed", f"{self.describe(i)}: report lacks command or value"
        if job["command"] != "integrate" and report.get("ok") is not True:
            return "failed", f"{self.describe(i)}: ok is {report.get('ok')!r}"
        expected, ref_err, allowance = job["expected"]
        value, bound = report["value"], report.get("error_bound")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or bound != 0:
            return "failed", f"{self.describe(i)}: value {value!r}, error_bound {bound!r}"
        if job["step_pair"]:
            self.tally.step_pair(value, expected)
        problem = _check_value(value, 0.0, expected, ref_err, allowance)
        if problem:
            return "failed", f"{self.describe(i)}: {problem}"
        return "ok", None


WORKLOADS = {w.name: w for w in (LimitRoute, StepAlgebra, OracleCrosscheck, CliJobs)}
