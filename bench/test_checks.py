"""Tests for the benchmark's output checks and span arithmetic.

Run from the repository root::

    python3 -m unittest discover -s bench -p "test_*.py"

Each check must pass a known-good CLI output and reject a corrupted one.
"""

from __future__ import annotations

import unittest
from fractions import Fraction

import checks
import spans
from launch import Tracer

CURVE_GRID = [Fraction(k, 4) for k in range(5)]
CURVE_GOOD = """\
p,value_closed_form,value_gamma,value_search,diff
0/1,0/1,0/1,0/1,0/1
1/4,1/8,1/8,1/8,0/1
1/2,1/6,1/6,1/6,0/1
3/4,1/12,1/12,1/12,0/1
1/1,0/1,0/1,0/1,0/1
analysis closed_form: d_star=1/6 (0.166667) p_star=1/2 (0.500000) concavity_violations=0
analysis gamma: d_star=1/6 (0.166667) p_star=1/2 (0.500000) concavity_violations=0
analysis search: d_star=1/6 (0.166667) p_star=1/2 (0.500000) concavity_violations=0
"""

SEARCH_P = Fraction(3, 4)
SEARCH_GOOD = """\
p,value,source,witness
3/4,3/16,search-m5,BW:G;BBW:BBG;BBW:BGG;BBW:BGW;BBW:WGW;BBBW:BBBBBG
"""

ESTIMATE_GOOD = """\
max_normalized,witness_graph6,skipped
5/28,GSHis{,0
"""


class CurveCheck(unittest.TestCase):
    def test_accepts_good_output(self):
        checks.check_curve(CURVE_GOOD, CURVE_GRID)

    def test_rejects_value_off_by_1_1024(self):
        bad = CURVE_GOOD.replace("1/4,1/8,1/8,1/8,", "1/4,1/8,1/8,129/1024,")
        with self.assertRaisesRegex(checks.CheckError, "search at p = 1/4"):
            checks.check_curve(bad, CURVE_GRID)

    def test_rejects_nonzero_diff(self):
        bad = CURVE_GOOD.replace("1/2,1/6,1/6,1/6,0/1", "1/2,1/6,1/6,1/6,1/1024")
        with self.assertRaisesRegex(checks.CheckError, "diff"):
            checks.check_curve(bad, CURVE_GRID)

    def test_rejects_wrong_analysis(self):
        for old, new, reason in (
            ("gamma: d_star=1/6", "gamma: d_star=1/5", "d\\*"),
            ("gamma: d_star=1/6 (0.166667) p_star=1/2", "gamma: d_star=1/6 (0.166667) p_star=3/4",
             "p\\*"),
            ("search: d_star=1/6 (0.166667) p_star=1/2 (0.500000) concavity_violations=0",
             "search: d_star=1/6 (0.166667) p_star=1/2 (0.500000) concavity_violations=1",
             "concavity"),
        ):
            with self.subTest(new=new):
                with self.assertRaisesRegex(checks.CheckError, reason):
                    checks.check_curve(CURVE_GOOD.replace(old, new), CURVE_GRID)

    def test_peak_bound_is_exact(self):
        self.assertTrue(checks.at_most_peak(Fraction(1, 6)))
        self.assertTrue(checks.at_most_peak(Fraction(17157, 100000)))
        self.assertFalse(checks.at_most_peak(Fraction(17158, 100000)))

    def test_formula_peaks_at_sqrt2_minus_1(self):
        near = Fraction(41421, 100000)
        self.assertTrue(checks.c8star(near) > checks.c8star(near - Fraction(1, 1000)))
        self.assertTrue(checks.c8star(near) > checks.c8star(near + Fraction(1, 1000)))


class SearchCheck(unittest.TestCase):
    def test_accepts_good_output(self):
        checks.check_search(SEARCH_GOOD, SEARCH_P, 5)

    def test_rejects_value_off_by_1_1024(self):
        bad = SEARCH_GOOD.replace("3/4,3/16,", "3/4,193/1024,")
        with self.assertRaisesRegex(checks.CheckError, "closed form"):
            checks.check_search(bad, SEARCH_P, 5)

    def test_rejects_witness_admitting_c4(self):
        # C4 maps onto the gray edge of K(2,0): each side of the cycle's
        # bipartition lands on one white vertex
        bad = SEARCH_GOOD.replace("BW:G;", "BW:G;WW:G;")
        with self.assertRaisesRegex(checks.CheckError, "C4 embeds in witness WW:G"):
            checks.check_search(bad, SEARCH_P, 5)

    def test_rejects_missing_k11(self):
        bad = SEARCH_GOOD.replace("BW:G;", "")
        with self.assertRaisesRegex(checks.CheckError, "K\\(1,1\\)"):
            checks.check_search(bad, SEARCH_P, 5)

    def test_c4_embedding_brute_force(self):
        for text, expected in (("B:", False), ("W:", False), ("BW:G", False),
                               ("BB:B", False), ("WW:G", True), ("BW:W", False)):
            with self.subTest(crg=text):
                self.assertIs(checks.c4_embeds(*checks.parse_compact_crg(text)), expected)


class EstimateCheck(unittest.TestCase):
    def test_accepts_good_output(self):
        checks.check_estimate(ESTIMATE_GOOD, 8, Fraction(1, 2))

    def test_rejects_distance_one_too_low(self):
        bad = ESTIMATE_GOOD.replace("5/28,", "1/7,")
        with self.assertRaisesRegex(checks.CheckError, "no P4-free graph within 4 flips"):
            checks.check_estimate(bad, 8, Fraction(1, 2))

    def test_rejects_distance_one_too_high(self):
        bad = ESTIMATE_GOOD.replace("5/28,", "3/14,")
        with self.assertRaisesRegex(checks.CheckError, "P4-free graph (is 5 flips|lies within 5)"):
            checks.check_estimate(bad, 8, Fraction(1, 2))

    def test_rejects_skipped_samples(self):
        bad = ESTIMATE_GOOD.replace("GSHis{,0", "GSHis{,1")
        with self.assertRaisesRegex(checks.CheckError, "skipped"):
            checks.check_estimate(bad, 8, Fraction(1, 2))

    def test_graph6_decoder(self):
        # P4 is "Ch" in graph6: edges 01, 12, 23
        n, adj = checks.decode_graph6("Ch")
        self.assertEqual((n, adj), (4, [0b0010, 0b0101, 0b1010, 0b0100]))
        self.assertEqual(checks.induced_p4(adj), (0, 1, 2, 3))


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        trace = {
            "names": ["outer", "inner"],
            "spans": [[0, 0, 100, -1], [1, 10, 40, 0], [1, 50, 60, 0], [0, 200, 210, -1]],
            "counts": {},
        }
        totals = spans.layer_totals(trace)
        self.assertEqual(totals["outer"]["calls"], 2)
        self.assertAlmostEqual(totals["outer"]["self_s"] * 1e9, 70)
        self.assertAlmostEqual(totals["inner"]["self_s"] * 1e9, 40)

    def test_tracer_records_nesting_and_generator_steps(self):
        tracer = Tracer()
        leaf = tracer.wrap("leaf", lambda x: x + 1)

        def items():
            yield leaf(1)
            yield leaf(2)

        gen = tracer.wrap_generator("gen", items)
        self.assertEqual(list(gen()), [2, 3])
        names = [tracer.names[s[0]] for s in tracer.spans]
        # three generator steps (the last one finds the end), each leaf inside a step
        self.assertEqual(names, ["gen", "leaf", "gen", "leaf", "gen"])
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, -1, 2, -1])
        self.assertEqual(tracer.counts["gen.yielded"], 2)


if __name__ == "__main__":
    unittest.main()
