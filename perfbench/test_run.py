"""Tests of the benchmark's own helpers: python3 -m unittest discover -s perfbench"""

import itertools
import json
import unittest

import run

LADDER_INPUTS = {"mult": 32, "div": 32, "stress1k": 64}
DESIGNER_SESSIONS = {"c17": (5, "protest"), "alu74181": (14, "protest"),
                     "comp": (51, "protest"), "alu-mc": (14, "monte-carlo")}


def take(stream, n):
    return [json.dumps(pair, sort_keys=True) for pair in itertools.islice(stream, n)]


class StreamTest(unittest.TestCase):
    def test_equal_seeds_give_identical_streams(self):
        self.assertEqual(take(run.ladder_stream(5, LADDER_INPUTS), 50),
                         take(run.ladder_stream(5, LADDER_INPUTS), 50))
        self.assertEqual(take(run.designer_stream(5, DESIGNER_SESSIONS), 500),
                         take(run.designer_stream(5, DESIGNER_SESSIONS), 500))

    def test_seeds_differ(self):
        self.assertNotEqual(take(run.ladder_stream(5, LADDER_INPUTS), 50),
                            take(run.ladder_stream(6, LADDER_INPUTS), 50))
        self.assertNotEqual(take(run.designer_stream(5, DESIGNER_SESSIONS), 500),
                            take(run.designer_stream(6, DESIGNER_SESSIONS), 500))

    def test_ladder_tuples_are_fresh(self):
        reqs = [req for _, req in itertools.islice(run.ladder_stream(1, LADDER_INPUTS), 300)]
        tuples = [tuple(r["input_probs"]) for r in reqs]
        self.assertEqual(len(set(tuples)), len(tuples))
        self.assertEqual([r["netlist"] for r in reqs[:6]],
                         ["mult", "div", "stress1k"] * 2)

    def test_designer_mix_and_rules(self):
        pairs = list(itertools.islice(run.designer_stream(3, DESIGNER_SESSIONS), 2000))
        reqs = [req for _, req in pairs]
        kinds = {}
        for r in reqs:
            kind = r["verb"] + ("+screen" if r.get("screen") else "")
            kinds[kind] = kinds.get(kind, 0) + 1
        self.assertEqual(kinds["analyze"], 800)          # 25% repeat + 15% near
        self.assertEqual(kinds["perturb"], 300)
        self.assertEqual(kinds["perturb+screen"], 300)
        self.assertEqual(kinds["optimize"], 100)
        # Each kind spreads evenly over its netlists, whatever the seed.
        per_kind = {}
        for group, req in pairs:
            kind, netlist = group.split(":")
            self.assertEqual(netlist, req["netlist"])
            counts = per_kind.setdefault(kind, {})
            counts[netlist] = counts.get(netlist, 0) + 1
        self.assertEqual(len(per_kind), len(run.DESIGNER_MIX))
        for counts in per_kind.values():
            self.assertLessEqual(max(counts.values()) - min(counts.values()), 1)
        for r in reqs:
            if r["verb"] == "optimize":
                n_in, engine = DESIGNER_SESSIONS[r["netlist"]]
                self.assertLessEqual(n_in, run.OPTIMIZE_MAX_INPUTS)
                self.assertEqual(engine, "protest")
            if r["verb"] == "perturb":
                self.assertNotEqual(r["input_probs"][r["input_index"]], r["new_p"])


class TailTest(unittest.TestCase):
    def test_counts_the_samples_beyond(self):
        for n in (9, 10, 11, 20, 99, 100, 101, 999, 1000, 1001, 5000):
            values = list(range(n))
            for q in (50, 75, 90, 95, 99):
                got = run.fixed_percentile(values, q)
                self.assertEqual(got["samples"], n)
                self.assertEqual(got["beyond"],
                                 sum(1 for v in values if v > got["value_ms"]))
                self.assertEqual(got["reportable"], got["beyond"] >= 10)

    def test_workload_tails_keep_ten_samples_beyond(self):
        # At the request counts a run reaches, the fixed tails are reportable.
        self.assertTrue(run.fixed_percentile(list(range(100)), 90)["reportable"])
        self.assertFalse(run.fixed_percentile(list(range(99)), 90)["reportable"])
        self.assertTrue(run.fixed_percentile(list(range(1000)), 99)["reportable"])
        self.assertFalse(run.fixed_percentile(list(range(999)), 99)["reportable"])
        self.assertEqual(run.TAIL_Q["estimate-ladder"], 90)
        self.assertEqual(run.TAIL_Q["designer-loop"], 99)


class GroupTest(unittest.TestCase):
    def test_p50_is_the_geometric_mean_of_group_medians(self):
        self.assertAlmostEqual(run.group_p50({"a": [1, 2, 3], "b": [4, 16, 64]}),
                               (2 * 16) ** 0.5)

    def test_p50_ignores_where_a_pooled_median_would_fall(self):
        # Two clusters of nearly equal size: the pooled median jumps between
        # them, the group figure does not move.
        a = {"fast": [1.0] * 50, "slow": [10.0] * 51}
        b = {"fast": [1.0] * 51, "slow": [10.0] * 50}
        self.assertAlmostEqual(run.group_p50(a), run.group_p50(b))


class CompareTest(unittest.TestCase):
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def verdict(self, change, better="higher", bound=0.05, parent=None):
        return run.verdict(parent or self.parent, change, better, bound)["verdict"]

    def test_improved(self):
        self.assertEqual(self.verdict([x + 10 for x in self.parent]), "improved")
        self.assertEqual(self.verdict([x - 10 for x in self.parent], better="lower"),
                         "improved")

    def test_unchanged(self):
        self.assertEqual(self.verdict(list(reversed(self.parent))), "unchanged")
        # Better in most pairs, but not nine in ten: no gain is claimed.
        change = [x + 3 for x in self.parent[:8]] + [x - 3 for x in self.parent[8:]]
        self.assertEqual(self.verdict(change), "unchanged")

    def test_worse(self):
        self.assertEqual(self.verdict([x - 10 for x in self.parent]), "worse")
        self.assertEqual(self.verdict([x + 10 for x in self.parent], better="lower"),
                         "worse")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        self.assertEqual(self.verdict([x - 5 for x in noisy], parent=noisy),
                         "unresolved")
        # ...unless every run of the change beats every run of the parent.
        self.assertEqual(self.verdict([200] * 10, parent=noisy), "improved")

    def test_too_few_pairs_is_unresolved(self):
        self.assertEqual(self.verdict([x + 10 for x in self.parent[:9]],
                                      parent=self.parent[:9]), "unresolved")
        self.assertEqual(self.verdict([110], parent=[100]), "unresolved")

    def test_repeated_seeds_keep_every_run(self):
        res = lambda v: {"metrics": {"m": {"value": v}}}
        parent = [(1, res(100)), (1, res(101)), (2, res(99))]
        change = [(1, res(110)), (2, res(109)), (1, res(111)), (3, res(1))]
        pairs, unpaired = run.pair_runs(parent, change)
        self.assertEqual([(p["metrics"]["m"]["value"], c["metrics"]["m"]["value"])
                          for p, c in pairs], [(100, 110), (101, 111), (99, 109)])
        self.assertEqual(unpaired, 1)
        # Ten runs of one seed on each side make ten pairs, not one.
        pairs, _ = run.pair_runs([(7, res(100 + i)) for i in range(10)],
                                 [(7, res(200 + i)) for i in range(10)])
        self.assertEqual(len(pairs), 10)

    def test_ratio_has_its_base(self):
        v = run.verdict(self.parent, [x * 1.5 for x in self.parent], "higher", 0.05)
        self.assertAlmostEqual(v["ratio"], 1.5)
        self.assertEqual(v["parent_median"], 100)


class CheckTest(unittest.TestCase):
    def test_corrupted_response_counts_as_failure(self):
        self.assertTrue(run.self_test())

    def test_wrong_id_and_error_responses_fail(self):
        req = {"verb": "stats", "id": 3}
        ok = json.dumps({"id": 3, "verb": "stats", "ok": True, "result": {}})
        run.check_response(ok, req, 3)
        for bad in (ok.replace('"id": 3', '"id": 4'),
                    json.dumps({"id": 3, "verb": "stats", "ok": False,
                                "error": {"code": "internal", "message": "x"}}),
                    ok[:-3]):
            with self.assertRaises(run.CheckFailed):
                run.check_response(bad, req, 3)


class SpanTest(unittest.TestCase):
    def test_self_times_and_residual_account_for_requests(self):
        spans = [["request", 1, -1, 0.0, 10.0],
                 ["analysis.decode", 1, 0, 0.0, 1.0],
                 ["protest.session", 1, 0, 1.5, 7.0],
                 ["prob", 1, 2, 2.0, 6.0],
                 ["analysis.encode", 1, 0, 7.0, 9.0]]
        self_s, residual, roots = run.span_report(spans)
        self.assertEqual(self_s, {"analysis.decode": 1.0, "protest.session": 1.5,
                                  "prob": 4.0, "analysis.encode": 2.0})
        self.assertEqual(residual, {1: 1.5})
        self.assertEqual(roots, {1: 10.0})
        self.assertAlmostEqual(sum(self_s.values()) + residual[1], roots[1])


if __name__ == "__main__":
    unittest.main()
