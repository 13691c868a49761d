"""Self-tests of the benchmark itself (not of pcddg).

    python3 perfbench/selftest.py

Covers the span arithmetic, the output checks, the removal of every
wrapper after a traced run, and that the seed changes no work count.
Takes about 15 s on one core.
"""

import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers                                                   # noqa: E402
import run                                                      # noqa: E402
import spans                                                    # noqa: E402
import workloads as wl                                          # noqa: E402
from pcddg.config import parse_config                           # noqa: E402


def _scratch():
    os.makedirs(run.WORK, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.WORK)


def _span(name, start, end, parent):
    return [name, start, end, parent, "r"]


class SpanArithmetic(unittest.TestCase):
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 9]; a has child d [2, 3]; e [20, 21] is a second root
    TREE = [_span("root", 0.0, 10.0, -1), _span("a", 1.0, 4.0, 0),
            _span("b", 3.0, 6.0, 0), _span("c", 8.0, 9.0, 0),
            _span("d", 2.0, 3.0, 1), _span("e", 20.0, 21.0, -1)]

    def test_self_time(self):
        kids = spans.children_of(self.TREE)
        self.assertEqual(kids[0], [1, 2, 3])
        # union of children is [1, 6] + [8, 9] = 6
        self.assertAlmostEqual(spans.self_time(self.TREE, kids, 0), 4.0)
        self.assertAlmostEqual(spans.self_time(self.TREE, kids, 1), 2.0)
        self.assertAlmostEqual(spans.self_time(self.TREE, kids, 4), 1.0)
        self.assertAlmostEqual(spans.coverage(self.TREE, kids, 0), 0.6)

    def test_covered_and_ancestry(self):
        self.assertAlmostEqual(spans.covered([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertAlmostEqual(spans.covered([(0, 5), (1, 2)]), 5.0)
        self.assertTrue(spans.has_ancestor(self.TREE, 4, "root"))
        self.assertFalse(spans.has_ancestor(self.TREE, 4, "b"))
        self.assertEqual(spans.outermost(self.TREE, {"a", "d", "e"}), [1, 5])

    def test_recorder_nesting(self):
        rec = spans.SpanRecorder()
        outer = rec.timed("outer", lambda: inner())
        inner = rec.timed("inner", lambda: 1)
        self.assertEqual(outer(), 1)
        names = [s[spans.NAME] for s in rec.spans]
        self.assertEqual(names, ["outer", "inner"])
        self.assertEqual(rec.spans[1][spans.PARENT], 0)
        self.assertTrue(all(s[spans.END] >= s[spans.START]
                            for s in rec.spans))


class OutputChecks(unittest.TestCase):
    GOOD = "t,I_anode,N_e\n0,0,0\n1e-16,1.5e-3,2e8\n2e-16,1.4e-3,3e8\n"

    def setUp(self):
        self.tmp = _scratch()
        self.addCleanup(self.tmp.cleanup)
        self.n = 0

    def _write(self, text):
        self.n += 1
        return run.write_text(os.path.join(self.tmp.name, f"{self.n}.csv"),
                              text)

    def test_accepts_complete_probes(self):
        header, data = wl.read_csv(self._write(self.GOOD), expect_rows=3)
        self.assertEqual(header, ["t", "I_anode", "N_e"])
        self.assertEqual(data.shape, (3, 3))

    def test_rejects_nan(self):
        for bad in ("nan", "NaN", "inf", "-inf"):
            text = self.GOOD.replace("2e8", bad)
            with self.assertRaises(wl.CheckFailed):
                wl.read_csv(self._write(text), expect_rows=3)

    def test_rejects_truncated(self):
        cut = self.GOOD[:self.GOOD.rindex(",")]       # last row cut short
        with self.assertRaises(wl.CheckFailed):
            wl.read_csv(self._write(cut), expect_rows=3)
        short = "".join(self.GOOD.splitlines(True)[:-1])
        with self.assertRaises(wl.CheckFailed):
            wl.read_csv(self._write(short), expect_rows=3)

    def test_rejects_nonfinite_text(self):
        path = self._write("POINT_DATA 2\n1.0 2.0\n-nan 3\n")
        with self.assertRaises(wl.CheckFailed):
            wl.check_finite_text(path)
        wl.check_finite_text(self._write("SCALARS n_e double\n1e-3 4\n"))


def _snapshot():
    return [(owner, attr, vars(owner)[attr])
            for owner, attr, _ in layers.patch_targets()]


class TracedRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = _scratch()
        cls.deck = run.write_text(os.path.join(cls.tmp.name, "deck.cfg"),
                                  wl.lowbias_deck_text(1))

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_wrappers_removed(self):
        before = _snapshot()
        out = os.path.join(self.tmp.name, "stat")
        os.makedirs(out)
        rec, (rc, *_) = run.traced(lambda rec: wl.run_command(
            "stationary", self.deck, out, rec))
        self.assertEqual(rc, 0)
        self.assertIn("stationary.assemble", {s[0] for s in rec.spans})
        def fails(rec):
            raise RuntimeError("operation failed")
        with self.assertRaises(RuntimeError):
            run.traced(fails)
        for (owner, attr, obj), (_, _, now) in zip(before, _snapshot()):
            self.assertIs(obj, now, f"{owner.__name__}.{attr}")

    def test_work_counts_do_not_depend_on_seed(self):
        counts = []
        for seed in (1, 2):
            outcome = wl.Outcome()
            deck = run.write_text(os.path.join(self.tmp.name, f"d{seed}.cfg"),
                                  wl.lowbias_deck_text(seed))
            rec, res = run.traced(lambda rec: wl.pcd1d_op(
                deck, os.path.join(self.tmp.name, f"op{seed}"), outcome,
                "op", rec))
            self.assertFalse(outcome.failures)
            m = layers.layer_metrics(rec)
            counts.append({k: v for k, (v, unit) in m.items()
                           if unit == "count"})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["em_dg.rhs.calls"], 0)
        steps = {wl.grating_build(wl.grating_peak_field(s))["n_steps"]
                 for s in (1, 2)}
        self.assertEqual(len(steps), 1)


class Decks(unittest.TestCase):
    @staticmethod
    def _keys(text):
        return [ln for ln in text.splitlines()
                if ln.strip() and not ln.lstrip().startswith("#")]

    def test_lowbias_differs_from_shipped_only_in_voltage(self):
        with open(wl.SHIPPED_DECK) as fh:
            shipped = self._keys(fh.read())
        with open(wl.LOWBIAS_DECK) as fh:
            low = self._keys(fh.read())
        diff = [(a, b) for a, b in zip(shipped, low) if a != b]
        self.assertEqual(len(shipped), len(low))
        self.assertEqual(diff, [("voltage = 10 V", "voltage = 0.1 V")])

    def test_seed_changes_only_power_and_probe(self):
        tmp = _scratch()
        self.addCleanup(tmp.cleanup)
        cfgs = [parse_config(run.write_text(
                    os.path.join(tmp.name, f"{seed}.cfg"),
                    wl.lowbias_deck_text(seed)))
                for seed in (1, 2)]
        a, b = cfgs
        self.assertNotEqual(a.source.power, b.source.power)
        self.assertNotEqual(a.probe_points[0, 0], b.probe_points[0, 0])
        for name in ("dim", "p_em", "p_dd", "t_end", "m_override", "cadence",
                     "wavelength", "temperature", "safety"):
            self.assertEqual(getattr(a, name), getattr(b, name), name)
        self.assertEqual([c.voltage for c in a.contacts],
                         [c.voltage for c in b.contacts])
        self.assertEqual(a.build_mesh().content_hash(),
                         b.build_mesh().content_hash())


if __name__ == "__main__":
    unittest.main()
