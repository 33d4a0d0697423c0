"""End-to-end benchmark of the anosograph CLI.

Usage:
    python3 perfbench/run.py --workload {build,certify,quotient}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
./src.  Inputs are generated from the seed (see corpus.py).  Every job is
a fresh interpreter (worker.py) started serially, because that is what a
CLI call costs and because the package's process-wide lru caches must not
carry over between jobs.  A run makes one pass over the corpus per
PASS_BUDGET_S of --seconds, and at least enough for MIN_SAMPLES job samples.

--trace 0 prints the end-to-end metrics, with times scaled to a reference
machine speed (REFERENCE_S) and job_s percentiles estimated by Harrell-Davis
over all job samples; --trace 1 prints the per-layer ones, unscaled,
from a traced pass, next to an untraced pass for the tracing overhead.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import mpmath

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOB_TIMEOUT_S = 30
HARD_LIMIT_S = 150  # no job starts later than this into the run
MIN_SAMPLES = 100  # job_s.p90 needs ten samples beyond it
PASS_BUDGET_S = 12  # one pass per this many --seconds, at least MIN_SAMPLES jobs
# Machine-speed reference (reference.py), sampled after every REFERENCE_EVERY-th
# job.  The speed of this kind of shared machine drifts by up to 1.7x within a
# minute, for every process alike.  Reported times are therefore scaled by
# REFERENCE_S / (the run's median reference time): seconds on a machine whose
# reference time is REFERENCE_S, a round value within the range measured on
# the machine in baseline.json.  The unscaled values are printed as well.
REFERENCE_EVERY = 4
REFERENCE_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "corpus_s": "s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "lyndon.lyndon_basis.self_s": "s",
    "lyndon.free_bracket_words.calls": "count",
    "lyndon.free_bracket_words.hit_ratio": "ratio",
    "liealg.build_graded_quotient.self_s": "s",
    "liealg.build_graded_quotient.calls": "count",
    "liealg.free_words": "count",
    "liealg.ideal_rows": "count",
    "linalg.rref.self_s": "s",
    "linalg.rref.calls": "count",
    "linalg.rref.cells": "count",
    "linalg.reduce_mod_rows.self_s": "s",
    "linalg.reduce_mod_rows.calls": "count",
    "linalg.det_bareiss.self_s": "s",
    "linalg.det_bareiss.calls": "count",
    "linalg.kernel_basis.self_s": "s",
    "linalg.kernel_basis.calls": "count",
    "intpoly.poly_gcd.self_s": "s",
    "intpoly.cyclotomic_indices_up_to_degree.self_s": "s",
    "intpoly.count_real_roots.self_s": "s",
    "spectra.char_poly.self_s": "s",
    "spectra.char_poly.calls": "count",
    "spectra.char_poly.max_n": "rows",
    "spectra.char_poly.ops": "mults",
    "spectra.compound_matrix.self_s": "s",
    "spectra.unit_root_free.self_s": "s",
    "spectra.unit_root_free.calls": "count",
    "spectra.unit_root_free.method.gcd-trivial": "count",
    "spectra.unit_root_free.method.cyclotomic-factor": "count",
    "spectra.unit_root_free.method.isolated-interval": "count",
    "mpmath.polyroots.self_s": "s",
    "mpmath.polyroots.calls": "count",
    "anosov.synthesize.self_s": "s",
    "anosov.find_component_matrix.self_s": "s",
    "anosov.find_component_matrix.candidates": "count",
    "anosov.ladder_rungs": "count",
    "anosov.extend_to_algebra.self_s": "s",
    "anosov.extend_to_algebra.calls": "count",
    "anosov.extend_to_algebra.rejected": "count",
    "anosov.verify_certificate.self_s": "s",
    "derivations.build_quotient.self_s": "s",
    "derivations.derivation_algebra.self_s": "s",
    "derivations.derivation_algebra.calls": "count",
    "derivations.span_report.self_s": "s",
    "derivations.lift_check.self_s": "s",
    "derivations.hyperbolic_search.self_s": "s",
    "derivations.hyperbolic_search.candidates": "count",
    "derivations.hyperbolic_search.s_per_candidate": "s/candidate",
    "derivations.hyperbolic_search.unit_root_tests": "count",
    "derivations.hyperbolic_search.found": "count",
    "cli.main.self_s": "s",
    "graphs.coherent_components.self_s": "s",
    "trace.corpus_s": "s",
    "trace.outside_s": "s",
    "trace.untraced_corpus_s": "s",
    "trace.overhead_ratio": "ratio",
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no package, broken import)."""


@dataclass
class Result:
    job: corpus.Job
    job_s: float
    setup_s: float | None = None
    rss_mb: float | None = None
    failure: str | None = None
    record: dict | None = None


def job_env(src):
    env = {k: v for k, v in os.environ.items()
           if k not in ("ANOSOGRAPH_BUDGET_BITS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Runs jobs one at a time against the package under `src`."""

    def __init__(self, work, started, src=SRC):
        self.work = work
        self.src = src
        self.env = job_env(src)
        self.deadline = started + HARD_LIMIT_S

    def spawn(self, argv, trace):
        """Run one worker; returns (returncode, stdout, stderr, record, spawn time)."""
        record_path = self.work / "record.json"
        if record_path.exists():
            record_path.unlink()
        cmd = [sys.executable, str(HERE / "worker.py"), str(record_path),
               "1" if trace else "0", *argv]
        timeout = min(JOB_TIMEOUT_S, self.deadline - time.perf_counter())
        if timeout <= 0:
            return None, b"", b"", None, None
        spawned = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=ROOT)
        out = None
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if out is None:
            return None, b"", b"", None, spawned
        record = None
        if record_path.exists():
            with open(record_path, encoding="utf-8") as fh:
                record = json.load(fh)
        return proc.returncode, out, err, record, spawned

    def reference(self):
        """Seconds from spawning reference.py until its imports are done."""
        spawned = time.perf_counter()
        try:
            out = subprocess.run([sys.executable, str(HERE / "reference.py")], env=self.env,
                                 cwd=ROOT, capture_output=True, check=True,
                                 timeout=JOB_TIMEOUT_S).stdout
        except (subprocess.SubprocessError, OSError) as e:
            raise SetupError(f"the speed reference does not run: {e}") from None
        return float(out) - spawned

    def warm_up(self):
        """Untimed job that compiles bytecode and proves the package imports from ./src."""
        code, _, err, record, _ = self.spawn(["--help"], trace=False)
        if code != 0 or record is None:
            raise SetupError(f"the CLI does not start from {self.src}: "
                             + err.decode(errors="replace").strip()[-500:])
        package = Path(record["package"]).resolve()
        if Path(self.src).resolve() not in package.parents:
            raise SetupError(f"anosograph was imported from {package}, not from {self.src}")

    def run(self, job, trace=False):
        if job.prepare is not None:
            try:
                job.prepare()
            except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
                return Result(job, 0.0, failure=f"cannot prepare input: {e!r}")
        started = time.perf_counter()
        code, out, err, record, spawned = self.spawn(job.argv, trace)
        if code is None:
            elapsed = 0.0 if spawned is None else time.perf_counter() - spawned
            return Result(job, elapsed, failure="timeout")
        if record is None:
            result = Result(job, time.perf_counter() - started)
        else:
            result = Result(job, record["end"] - record["start"], setup_s=record["ready"] - spawned,
                            rss_mb=record["peak_rss_kb"] / 1024, record=record)
        result.failure = _judge(job, code, out, err)
        return result


def _judge(job, code, out, err):
    text = err.decode(errors="replace")
    if "Traceback (most recent call last)" in text:
        return "traceback: " + text.strip().splitlines()[-1]
    if code != job.exit_code:
        return f"exit code {code}, expected {job.exit_code}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "stdout is not one JSON document"
    return job.check(doc)


def harrell_davis(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the
    order statistics around rank q*n, steadier than any single one of them."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def end_to_end(passes):
    results = [r for p in passes for r in p]
    job_s = [r.job_s for r in results]
    setups = [r.setup_s for r in results if r.setup_s is not None]
    rss = [r.rss_mb for r in results if r.rss_mb is not None]
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "corpus_s": statistics.median(sum(r.job_s for r in p) for p in passes),
        "job_s.p50": harrell_davis(job_s, 0.5),
        "job_s.p90": harrell_davis(job_s, 0.9),
        "peak_rss_mb": max(rss, default=0.0),
    }


# -- per-layer aggregation ---------------------------------------------------------


def _has_ancestor(spans, idx, name):
    idx = spans[idx][3]
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False


def nesting_errors(spans, start, end):
    """Number of spans that lie outside their parent span (the job's own
    interval [start, end] for a root) or overlap an earlier sibling.  Without
    such spans, every self time and the time outside spans is >= 0."""
    errors = 0
    last_end = {}
    for name, s, e, parent, _ in spans:
        lo, hi = (spans[parent][1], spans[parent][2]) if parent >= 0 else (start, end)
        if not lo <= s <= e <= hi or s < last_end.get(parent, lo):
            errors += 1
        last_end[parent] = e
    return errors


def layer_totals(results):
    """Per-layer metrics of one traced pass, plus the accounting check's figures:
    (traced job seconds, reported self_s metrics plus time outside spans,
    number of mis-nested spans)."""
    tot = dict.fromkeys(PER_LAYER, 0)
    search_s = 0.0
    hits = calls = 0
    job_total = 0.0
    errors = 0
    for r in results:
        rec = r.record
        if rec is None or "trace" not in rec:
            continue
        spans = rec["trace"]["spans"]
        errors += nesting_errors(spans, rec["start"], rec["end"])
        if "fbw_cache" in rec:
            hits += rec["fbw_cache"][0]
            calls += sum(rec["fbw_cache"])
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        roots = 0.0
        for i, (name, start, end, parent, extras) in enumerate(spans):
            dur = end - start
            if parent < 0:
                roots += dur
            key = f"{name}.self_s"
            if key in tot:
                tot[key] += dur - child[i]
            if f"{name}.calls" in tot:
                tot[f"{name}.calls"] += 1
            extras = extras or {}
            if name == "linalg.rref":
                tot["linalg.rref.cells"] += extras.get("cells", 0)
            elif name == "spectra.char_poly":
                tot["spectra.char_poly.max_n"] = max(tot["spectra.char_poly.max_n"],
                                                     extras.get("n", 0))
                tot["spectra.char_poly.ops"] += extras.get("ops", 0)
            elif name == "spectra.unit_root_free":
                method = f"spectra.unit_root_free.method.{extras.get('method')}"
                if method in tot:
                    tot[method] += 1
                if _has_ancestor(spans, i, "derivations.hyperbolic_search"):
                    tot["derivations.hyperbolic_search.unit_root_tests"] += 1
            elif name == "liealg.build_graded_quotient":
                tot["liealg.free_words"] += extras.get("free_words", 0)
                tot["liealg.ideal_rows"] += extras.get("ideal_rows", 0)
            elif name == "anosov.extend_to_algebra":
                if extras.get("error") == "ExtensionError":
                    tot["anosov.extend_to_algebra.rejected"] += 1
                if _has_ancestor(spans, i, "anosov.synthesize"):
                    tot["anosov.ladder_rungs"] += 1
            elif name == "derivations.hyperbolic_search":
                search_s += dur
                tot["derivations.hyperbolic_search.candidates"] += extras.get("candidates", 0)
                tot["derivations.hyperbolic_search.found"] += extras.get("found", 0)
        for name, parent in rec["trace"]["events"]:
            if name == "spectra.products_off_circle" and parent >= 0 and (
                    spans[parent][0] == "anosov.find_component_matrix"
                    or _has_ancestor(spans, parent, "anosov.find_component_matrix")):
                tot["anosov.find_component_matrix.candidates"] += 1
        tot["trace.outside_s"] += r.job_s - roots
        job_total += r.job_s
    tot["lyndon.free_bracket_words.calls"] = calls
    tot["lyndon.free_bracket_words.hit_ratio"] = hits / calls if calls else 0.0
    candidates = tot["derivations.hyperbolic_search.candidates"]
    tot["derivations.hyperbolic_search.s_per_candidate"] = search_s / candidates if candidates else 0.0
    tot["trace.corpus_s"] = job_total
    # Only the self_s metrics that are reported: a span without one is missed here.
    accounted = tot["trace.outside_s"] + sum(
        value for name, value in tot.items() if name.endswith(".self_s"))
    return tot, job_total, accounted, errors


# -- runs ------------------------------------------------------------------------


def measure(runner, jobs, seconds):
    """Untraced passes, one per PASS_BUDGET_S seconds and at least MIN_SAMPLES
    jobs, plus the reference times sampled between jobs.

    The pass count depends only on --seconds and the corpus, so every run
    reports the same statistics over the same number of samples."""
    count = max(math.ceil(MIN_SAMPLES / len(jobs)), int(seconds // PASS_BUDGET_S))
    passes, reference = [], []
    for _ in range(count):
        results = []
        for i, job in enumerate(jobs):
            results.append(runner.run(job))
            if i % REFERENCE_EVERY == 0:
                reference.append(runner.reference())
        passes.append(results)
    return passes, reference


def measure_traced(runner, jobs, seconds, started):
    """Pairs of one untraced and one traced pass, at least one pair."""
    plain, traced, walls = [], [], []
    while True:
        t = time.perf_counter()
        plain.append([runner.run(job) for job in jobs])
        traced.append([runner.run(job, trace=True) for job in jobs])
        walls.append(time.perf_counter() - t)
        if time.perf_counter() - started + statistics.mean(walls) > seconds:
            return plain, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "anosograph" / "cli.py").is_file():
        print(f"error: no anosograph package under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        jobs = corpus.generate(args.workload, args.seed, work)
        runner = Runner(work, started)
        runner.warm_up()
        if args.trace:
            plain, traced = measure_traced(runner, jobs, args.seconds, started)
            passes = plain + traced
        else:
            passes, reference = measure(runner, jobs, args.seconds)
        elapsed = time.perf_counter() - started
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if base.is_dir() and not any(base.iterdir()):
            base.rmdir()

    results = [r for p in passes for r in p]
    failures = [r for r in results if r.failure]
    correct = not failures
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes x "
          f"{len(jobs)} jobs = {len(results)} job samples in {elapsed:.1f} s")
    if args.trace:
        per_pass = [layer_totals(p) for p in traced]
        metrics = {name: statistics.mean(t[0][name] for t in per_pass) for name in PER_LAYER}
        metrics["trace.untraced_corpus_s"] = statistics.median(
            sum(r.job_s for r in p) for p in plain)
        metrics["trace.overhead_ratio"] = metrics["trace.corpus_s"] / metrics["trace.untraced_corpus_s"]
        for _, job_total, accounted, errors in per_pass:
            print(f"accounting: reported layer self times + time outside spans = {accounted:.6f} s, "
                  f"traced job time = {job_total:.6f} s, mis-nested spans: {errors}")
            if errors or abs(job_total - accounted) > 1e-6 * max(1.0, job_total):
                correct = False
        missing = sorted({m for p in traced for r in p if r.record and "trace" in r.record
                          for m in r.record["trace"]["missing"]})
        if missing:
            print(f"not found in the package, reported as 0: {', '.join(missing)}")
        units = PER_LAYER
    else:
        raw = end_to_end(passes)
        scale = REFERENCE_S / statistics.median(reference)
        metrics = {name: value * scale if END_TO_END[name] == "s" else value
                   for name, value in raw.items()}
        print(f"scale {scale:.4f}: reference {statistics.median(reference):.5f} s "
              f"(median of {len(reference)}) against {REFERENCE_S} s; unscaled "
              + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"  (job_s Harrell-Davis percentiles over {len(results)} samples; setup_s is the median "
              f"of {sum(r.setup_s is not None for r in results)})")
    print(f"fail_ratio {len(failures) / len(results):.6g} ({len(failures)}/{len(results)})")
    for r in failures:
        print(f"FAILED {r.job.name}: {r.failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
