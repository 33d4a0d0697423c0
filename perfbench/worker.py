"""One benchmark job: a fresh interpreter running `anosograph.cli.main(argv)`.

Usage: python3 perfbench/worker.py RECORD TRACE CLI-ARG...

The CLI writes to this process's stdout as it would from the console
script.  Timings use `time.perf_counter`, the system-wide monotonic clock
on Linux, so the parent can subtract its own spawn time from `ready`.
RECORD receives a JSON object with the clock readings, the job's peak RSS,
the `free_bracket_words` cache statistics and, with TRACE=1, the spans.
The peak RSS is VmHWM from /proc/self/status, which belongs to this
program's address space alone.  `getrusage` would not do: exec carries the
high-water RSS of the process it replaces, here a fork of run.py,
into `ru_maxrss`.
"""

import time
import json
import sys

import anosograph.cli

ready = time.perf_counter()


def peak_rss_kb():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[3:]
    entry = anosograph.cli.main
    recorder = None
    if trace:
        from spans import Recorder

        recorder = Recorder()
        entry = recorder.install()
    record = {"ready": ready, "package": anosograph.cli.__file__}
    start = time.perf_counter()
    try:
        code = entry(argv)
        sys.stdout.flush()
    finally:
        record["start"], record["end"] = start, time.perf_counter()
        record["peak_rss_kb"] = peak_rss_kb()
        cached = getattr(sys.modules.get("anosograph.lyndon"), "free_bracket_words", None)
        if hasattr(cached, "cache_info"):
            info = cached.cache_info()
            record["fbw_cache"] = [info.hits, info.misses]
        if recorder is not None:
            record["trace"] = recorder.to_json()
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
