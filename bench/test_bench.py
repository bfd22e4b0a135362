"""Self-tests of the benchmark's own logic (no library needed).

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import os
import random
import sys
import unittest
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
from run import CAL_REF_S, at_reference_speed, percentile, tail_percentile  # noqa: E402
from workloads import _canonical  # noqa: E402

TAU = 0.5


def shape(name: str) -> ref.Model:
    """The five elementary integrands on [0, 1] as step models."""
    if name == "one":
        return ref.step_model((0.0, 1.0), (1.0, 1.0), (1.0,))
    if name == "chi(a,b]":
        return ref.step_model((0.0, 1.0), (0.0, 1.0), (1.0,))
    if name == "chi(tau,b]":
        return ref.step_model((0.0, TAU, 1.0), (0.0, 0.0, 1.0), (0.0, 1.0))
    if name == "chi[tau,b]":
        return ref.step_model((0.0, TAU, 1.0), (0.0, 1.0, 1.0), (0.0, 1.0))
    return ref.step_model((0.0, 1.0), (0.0, 1.0), (0.0,))  # chi{b}


# g jumps everywhere it can: g(0) = 1, g(0+) = 3, g(tau-) = 3, g(tau) = 2,
# g(tau+) = 5, g(1-) = 5, g(1) = 4.
G_STEP = ref.step_model((0.0, TAU, 1.0), (1.0, 2.0, 4.0), (3.0, 5.0))
G_IDENTITY = ref.Model((0.0, 1.0), (0.0, 1.0), ([ref.Mono(1.0, 1.0)],))

# (shape, integral of the shape against dg, integral of g against
# d(shape)), each as (K and Y, D), derived by hand from the limit
# definitions with the one-sided values of G_STEP listed above.
TABLE_STEP = {
    "one": ((3.0, 3.0), (0.0, 0.0)),                # g(b) - g(a); 0
    "chi(a,b]": ((1.0, 3.0), (1.0, 3.0)),           # g(b) - g(a+) | g(b) - g(a); g(a) | g(a+)
    "chi(tau,b]": ((-1.0, 2.0), (2.0, 5.0)),        # g(b) - g(tau+) | g(b) - g(tau); g(tau) | g(tau+)
    "chi[tau,b]": ((1.0, 2.0), (2.0, 3.0)),         # g(b) - g(tau-) | g(b) - g(tau); g(tau) | g(tau-)
    "chi{b}": ((-1.0, 0.0), (4.0, 5.0)),            # g(b) - g(b-) | 0; g(b) | g(b-)
}
# Against the continuous g(t) = t every kind agrees.
TABLE_IDENTITY = {"one": (1.0, 0.0), "chi(a,b]": (1.0, 0.0), "chi(tau,b]": (0.5, 0.5),
                  "chi[tau,b]": (0.5, 0.5), "chi{b}": (0.0, 1.0)}


class ElementaryShapes(unittest.TestCase):
    def test_against_a_step_integrator(self):
        for name, ((fwd_ky, fwd_d), (bwd_ky, bwd_d)) in TABLE_STEP.items():
            e = shape(name)
            for kind, fwd, bwd in (("K", fwd_ky, bwd_ky), ("Y", fwd_ky, bwd_ky),
                                   ("D", fwd_d, bwd_d)):
                with self.subTest(shape=name, kind=kind):
                    self.assertEqual(ref.integral(e, G_STEP, kind), (fwd, 0.0))
                    self.assertEqual(ref.integral(G_STEP, e, kind), (bwd, 0.0))

    def test_against_the_identity(self):
        for name, (fwd, bwd) in TABLE_IDENTITY.items():
            e = shape(name)
            for kind in ("K", "Y", "D"):
                with self.subTest(shape=name, kind=kind):
                    value, err = ref.integral(e, G_IDENTITY, kind)
                    self.assertLessEqual(abs(value - fwd), err + 1e-15)
                    value, err = ref.integral(G_IDENTITY, e, kind)
                    self.assertLessEqual(abs(value - bwd), err + 1e-15)

    def test_closed_forms_of_smooth_pieces(self):
        # int_0^1 t^2 d(sin t) = int t^2 cos t dt = sin 1 + 2 cos 1 - 2 sin 1
        f = ref.Model((0.0, 1.0), (0.0, 1.0), ([ref.Mono(1.0, 2.0)],))
        g = ref.Model((0.0, 1.0), (0.0, 0.8414709848078965), ([ref.Wave(1.0, 1.0, 0.0)],))
        value, err = ref.integral(f, g, "Y")
        want = 2.0 * 0.5403023058681398 - 0.8414709848078965
        self.assertLessEqual(abs(value - want), err + 1e-15)
        self.assertLess(err, 1e-13)


class ExactSums(unittest.TestCase):
    def test_matches_plain_fraction_sums(self):
        rng = random.Random(7)
        for _ in range(200):
            nodes = [0.0] + sorted(rng.random() for _ in range(rng.randint(0, 6))) + [1.0]
            g_nodes = [0.0] + sorted(rng.sample(nodes[1:-1], len(nodes) // 3)) + [1.0]
            f = ref.step_model(nodes, [rng.uniform(-5, 5) for _ in nodes],
                               [rng.uniform(-5, 5) for _ in nodes[1:]])
            g = ref.step_model(g_nodes, [rng.uniform(-5, 5) for _ in g_nodes],
                               [rng.uniform(-5, 5) for _ in g_nodes[1:]])
            m = len(nodes) - 1
            gv = lambda x: Fraction(ref.value_at(g, x))  # noqa: E731
            gl = lambda k: gv(nodes[0]) if k == 0 else Fraction(ref.left_limit_at(g, nodes[k]))  # noqa: E731
            gr = lambda k: gv(nodes[m]) if k == m else Fraction(ref.right_limit_at(g, nodes[k]))  # noqa: E731
            young = sum(Fraction(f.at[k]) * (gr(k) - gl(k)) for k in range(m + 1))
            dushnik = sum(Fraction(f.pieces[k][0].c) * (gv(nodes[k + 1]) - gv(nodes[k]))
                          for k in range(m))
            self.assertEqual(ref.step_step_exact(f, g, "Y")[0], young)
            self.assertEqual(ref.step_step_exact(f, g, "D")[0], dushnik)


class Canonical(unittest.TestCase):
    def test_drops_only_silent_interior_nodes(self):
        nodes, at, on = _canonical([0.0, 0.25, 0.5, 0.75, 1.0], [1, 2, 2, 3, 3], [2, 2, 3, 3])
        self.assertEqual((nodes, at, on), ([0.0, 0.5, 1.0], [1, 2, 3], [2, 3]))


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        cases = {19: None, 20: (50.0, 10), 39: (50.0, 19), 40: (75.0, 10), 99: (75.0, 24),
                 100: (90.0, 10), 999: (90.0, 99), 1000: (99.0, 10), 9999: (99.0, 99),
                 10000: (99.9, 10)}
        for n, want in cases.items():
            with self.subTest(n=n):
                self.assertEqual(tail_percentile(n), want)

    def test_the_chosen_percentile_leaves_ten_samples_above_it(self):
        for n in (20, 57, 100, 333, 1000):
            p, beyond = tail_percentile(n)
            xs = list(range(n))
            self.assertGreaterEqual(sum(x > percentile(xs, p) for x in xs), 10)
            self.assertEqual(beyond, int(n * (100 - p) / 100 + 1e-6))

    def test_percentile_interpolates(self):
        self.assertEqual(percentile([3.0, 1.0, 2.0, 4.0], 50.0), 2.5)
        self.assertEqual(percentile([5.0], 99.0), 5.0)


class ReferenceSpeed(unittest.TestCase):
    def test_scales_by_the_calibration_around_each_op(self):
        slow, fast = 2.0 * CAL_REF_S, 0.5 * CAL_REF_S
        cal = [[slow, slow], [slow, slow], [fast, fast], [fast, fast]]
        got = at_reference_speed([0.012, 0.040, 0.003], cal)
        self.assertAlmostEqual(got[0], 0.006)
        self.assertAlmostEqual(got[1], 0.040 / 1.25)   # median of 2, 2, 0.5, 0.5
        self.assertAlmostEqual(got[2], 0.006)


if __name__ == "__main__":
    unittest.main()
