"""One run of one workload in a fresh interpreter; ``run.py`` starts it.

The run imports ``cutgrids`` from the checkout's ``src``, builds the seeded
inputs, prints ``ready`` with the probe times taken before and after that
set-up, and then drives the operations as a closed loop from one thread:
the next operation starts when the previous one returns.
It runs the fixed operations and then whole blocks of rounds until
``--seconds`` have passed, or exactly ``--rounds`` rounds when that is
given.  The last line of its output is a JSON object with one record per
operation ``[kind, size, seconds, ok, sha256 or null, probe seconds]``.

A wrong answer or an exception marks the operation failed; the run goes on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_ERRORS = 10
PROBE_EVERY_S = 0.1


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rounds", type=int,
                   help="run exactly this many rounds instead of timing")
    p.add_argument("--trace", action="store_true",
                   help="record per-layer spans and counts")
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up")
    p.add_argument("--smoke", action="store_true",
                   help="small fixed operations and one round, plus a check "
                        "that no two inputs are equal")
    return p.parse_args(argv)


def execute(op, errors: list) -> list:
    start = time.perf_counter()
    try:
        result = op.run()
    except (Exception, SystemExit):
        elapsed = time.perf_counter() - start
        if len(errors) < MAX_ERRORS:
            errors.append(f"{op.kind} {op.size}: "
                          + traceback.format_exc(limit=-3))
        return [op.kind, op.size, elapsed, False, None]
    elapsed = time.perf_counter() - start
    digest = None
    try:
        ok = bool(op.expect(result))
        if op.text is not None:
            digest = hashlib.sha256(
                op.text(result).encode("utf-8")).hexdigest()
    except Exception:
        ok = False
    if not ok and len(errors) < MAX_ERRORS:
        errors.append(f"{op.kind} {op.size}: wrong answer {result!r:.200}")
    return [op.kind, op.size, elapsed, ok, digest]


def probe() -> float:
    """Seconds taken by a fixed pure-Python task (rational arithmetic,
    tuples, a dict), which shows how fast the core runs right now.  On a
    shared machine that speed can change by half within a second, so every
    operation is timed next to probes taken at most PROBE_EVERY_S apart."""
    start = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 1500):
        total += Fraction(i % 89 + 1, i % 97 + 1)
        seen[(i % 50, total.denominator % 7)] = total
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def repeated_inputs(ops) -> int:
    """Operations whose bordism shares its grid and ambient, the key of the
    package's validation caches, with an earlier operation's input."""
    from cutgrids.bordisms import Bordism, BordismFamily
    seen, repeats = set(), 0
    for op in ops:
        keys = set()
        for value in op.inputs:
            if isinstance(value, Bordism):
                keys.add((value.mgrid, value.ambient))
            elif isinstance(value, BordismFamily):
                keys.add(value)
        repeats += bool(keys & seen)
        seen |= keys
    return repeats


def main(argv=None) -> int:
    setup_probe = probe()
    args = _parse(argv)
    out = sys.stdout   # cli operations capture sys.stdout while they run
    sys.path.insert(0, str(ROOT / "src"))
    import cutgrids.cli  # noqa: F401  (every layer is loaded before tracing)
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_work" / (
        f"run-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        prepared = args.rounds if args.rounds is not None else (
            1 if args.smoke else workload.PREPARED_ROUNDS)
        fixed = workload.fixed()
        rounds = [workload.round(r) for r in range(prepared)]
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        # the probes around set-up let run.py calibrate the set-up time
        out.write(f"ready {setup_probe} {probe()}\n")
        out.flush()
        if args.setup_only:
            return 0

        records: list = []
        errors: list = []
        probes = [probe()]
        since = [0]         # index of the last probe before each record
        start = last_probe = time.perf_counter()
        queue, done, rss = fixed, 0, None
        while True:
            for op in queue:
                since.append(len(probes) - 1)
                records.append(execute(op, errors))
                if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                    probes.append(probe())
                    last_probe = time.perf_counter()
            if done == workload.PREPARED_ROUNDS:
                rss = peak_rss_mb()
            if args.smoke or args.rounds is not None:
                if done == prepared:
                    break
            elif (done % workload.BLOCK == 0
                  and time.perf_counter() - start >= args.seconds):
                break
            queue = (rounds[done] if done < len(rounds)
                     else workload.round(done))
            done += 1
        wall = time.perf_counter() - start
        probes.append(probe())
        # each operation's probe is the mean of the probes around it
        for record, k in zip(records, since[1:]):
            record.append((probes[k] + probes[k + 1]) / 2)

        result = {
            "records": records,
            "rounds": done,
            "fixed_ops": len(fixed),
            "wall_s": wall,
            "probe_s": statistics.mean(probes),
            "peak_rss_mb": rss or peak_rss_mb(),
            "errors": errors,
        }
        if tracer is not None:
            result["layers"] = tracer.metrics()
        if args.smoke:
            result["repeated_inputs"] = repeated_inputs(fixed + [
                op for r in range(workload.PREPARED_ROUNDS)
                for op in workload.round(r)])
        out.write(json.dumps(result) + "\n")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
