"""Tests of the benchmark itself.

Usage (from the checkout root): python3 -m unittest perfbench/selftest.py

They run a handful of CLI jobs, so they take some seconds; the file name
keeps them out of the package's pytest collection.
"""

import json
import shutil
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import run  # noqa: E402

# Appended to a scratch copy of cli.py: a CLI that answers wrongly.
WRONG_ANSWERS = '''
import contextlib as _contextlib
import io as _io
import json as _json

_real_main = main


def main(argv=None):
    buf = _io.StringIO()
    with _contextlib.redirect_stdout(buf):
        code = _real_main(argv)
    try:
        doc = _json.loads(buf.getvalue())
    except ValueError:
        print(buf.getvalue(), end="")
        return code
    if doc.get("command") == "dims":
        doc["dims"][-1] += 1
    if doc.get("command") == "verify" and not doc["ok"]:
        doc["ok"], code = True, 0
    print(_json.dumps(doc))
    return code
'''


class BenchmarkTest(unittest.TestCase):
    def setUp(self):
        self.work = run.ROOT / ".perfbench_work" / f"selftest-{id(self)}"
        self.work.mkdir(parents=True)
        self.addCleanup(shutil.rmtree, self.work, True)

    def jobs(self, workload, prefixes):
        """The first job of each kind, in corpus order; a job's kind is the
        longest of `prefixes` that its name starts with."""
        picked = {}
        for job in corpus.generate(workload, corpus.DEFAULT_SEED, self.work):
            kinds = [p for p in prefixes if job.name.startswith(p)]
            if kinds:
                picked.setdefault(max(kinds, key=len), job)
        self.assertEqual(set(picked), set(prefixes))
        return list(picked.values())

    def test_metric_names_match_benchmark_json(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(corpus.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_closed_form_dims(self):
        self.assertEqual(corpus.closed_form_dims(*corpus.cycle(4), 3), [4, 4, 12])
        self.assertEqual(corpus.closed_form_dims(*corpus.complete(5), 4), [5, 10, 40, 150])
        self.assertEqual(corpus.closed_form_dims(*corpus.multipartite([2, 3]), 4),
                         [5, 6, 21, 65])
        self.assertEqual(corpus.closed_form_dims(4, [], 3), [4, 0, 0])

    def test_nesting_errors(self):
        root = ["cli.main", 1.0, 9.0, -1, None]
        self.assertEqual(run.nesting_errors([root, ["a", 2.0, 4.0, 0, None],
                                             ["b", 4.0, 8.0, 0, None]], 0.0, 10.0), 0)
        # A child that ends after its parent, and a sibling overlapping the one before.
        self.assertEqual(run.nesting_errors([root, ["a", 2.0, 9.5, 0, None]], 0.0, 10.0), 1)
        self.assertEqual(run.nesting_errors([root, ["a", 2.0, 5.0, 0, None],
                                             ["b", 4.0, 8.0, 0, None]], 0.0, 10.0), 1)
        # A root outside the job's own interval.
        self.assertEqual(run.nesting_errors([root], 2.0, 10.0), 1)

    def test_wrong_answers_count_as_failures(self):
        src = self.work / "src"
        shutil.copytree(run.SRC / "anosograph", src / "anosograph",
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(src / "anosograph" / "cli.py", "a", encoding="utf-8") as fh:
            fh.write(WRONG_ANSWERS)
        runner = run.Runner(self.work, time.perf_counter(), src=src)
        runner.warm_up()
        for workload, names, wrong in (
                ("build", ["dims K5"], "dims K5"),
                ("certify", ["synthesize C4", "verify C4", "verify-tampered C4"],
                 "verify-tampered C4")):
            results = [runner.run(job) for job in self.jobs(workload, names)]
            failed = [r.job.name for r in results if r.failure]
            self.assertEqual([n.split(" k=")[0] for n in failed], [wrong], results)
            self.assertGreater(len(failed) / len(results), 0)

    def test_traced_stdout_is_identical(self):
        runner = run.Runner(self.work, time.perf_counter())
        runner.warm_up()
        picked = (self.jobs("build", ["dims K5"])
                  + self.jobs("certify", ["synthesize C4", "verify C4"])
                  + self.jobs("quotient", ["derivations ", "derivations --quotient step2",
                                           "derivations --quotient step3", "search step2",
                                           "search step3", "search control"]))
        for job in picked:
            plain = runner.spawn(job.argv, trace=False)
            traced = runner.spawn(job.argv, trace=True)
            self.assertEqual(plain[0], traced[0], job.name)
            self.assertEqual(plain[1], traced[1], job.name)
            record = traced[3]
            self.assertTrue(record["trace"]["spans"], job.name)
            self.assertEqual(run.nesting_errors(record["trace"]["spans"], record["start"],
                                                record["end"]), 0, job.name)


if __name__ == "__main__":
    unittest.main()
