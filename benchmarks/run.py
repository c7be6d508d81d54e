"""Benchmark of the cutgrids engine.

    python3 benchmarks/run.py --workload planar --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --smoke
    python3 -m pytest benchmarks          # the benchmark's own tests

Run from a checkout of the repository; ``cutgrids`` is imported from its
``src`` directory.  Every run starts fresh interpreters (``loop.py``), as a
user of the command line pays cold caches on every invocation.

Times are calibrated.  On a shared machine the speed of a core can change
by half within a second, so ``loop.py`` runs a fixed pure-Python probe
before and after set-up and at least every 0.1 s between operations, and
every time is scaled to a core on which the probe takes
``PROBE_REFERENCE_S``.  The uncalibrated wall-clock operation figures are
printed beside the metrics.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s`` -- median over seven interpreters, three started before the
  measured one and three after it, of the time from starting the
  interpreter to the first timed operation: the import plus building the
  seeded inputs.
* ``ops_per_s`` -- operations per second of operation time over the rounds
  (the fixed operations at the start of a run are left out, so the figure
  does not depend on how many rounds fit into ``--seconds``).
* ``op_p50_ms``, ``op_p90_ms`` -- latency percentiles over all operations.
* ``peak_rss_mb`` -- peak resident memory of the measured interpreter.

``--trace 1`` runs the workload untraced for ``--seconds``, then traced over
exactly the same operations in a second interpreter.  It reports the
per-layer calls, self and total times and counts from ``spans.py``, and
``trace.overhead``, the traced operation time over the untraced one.

Each run also prints, on lines starting with ``#`` and in
``.bench_work/results/``, the machine, the operation counts and medians per
kind, a table of medians per input size, and any failures.  These are not
gated.  The sha256 of every document and SVG is compared with the traced
twin run or with earlier runs of the same seed and benchmark code in this
checkout; a mismatch counts as a failed operation.  The last line of output
is the JSON result.

Which metrics should move where:

* ``planar`` -- 2D region refinement (``plgeom``) and grid globularity and
  compactness (``grids``) take nearly all the time: ``plgeom`` self time and
  the region cell counts (``cells_out`` over ``cells_in`` is the
  fragmentation) should move ``ops_per_s``, ``op_p50_ms`` and ``op_p90_ms``
  here and nothing on ``linear`` or ``segal``.
* ``linear`` -- the same layers over 1D regions, with a larger share of
  document and cli work; ``grids.core.calls`` per render and the document
  byte counts move its cli and document times.
* ``segal`` -- ``finitecat`` and ``shapes`` only (``plgeom`` and ``grids``
  calls are 0); Gamma builds (``gamma_segal_category.arrows_out``) move
  ``op_p90_ms``, ``ops_per_s`` and ``peak_rss_mb`` here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("planar", "linear", "segal")
SETUPS = 7
# Times are reported for a core on which loop.probe() takes this long,
# about its time on a 2.1 GHz Xeon core running at full speed.
PROBE_REFERENCE_S = 0.004
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def child(args: list[str], timeout: float = CHILD_TIMEOUT_S):
    """Run loop.py; return its calibrated set-up time and its result."""
    cmd = [sys.executable, str(HERE / "loop.py"), *args]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline().split()
            wall = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    lines = rest.splitlines()
    if ready[:1] != ["ready"] or code != 0 or "--setup-only" not in args \
            and not lines:
        raise BenchError(f"{' '.join(args)} exited with {code}")
    before, after = float(ready[1]), float(ready[2])
    setup = (wall - before - after) * PROBE_REFERENCE_S / ((before + after) / 2)
    return setup, (json.loads(lines[-1]) if lines else None)


def ms(seconds: float) -> float:
    return seconds * 1000.0


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(args, rounds: int, records) -> dict:
    counts = defaultdict(int)
    for kind, *_ in records:
        counts[kind] += 1
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "ops_per_kind": dict(sorted(counts.items())),
    }


def medians(records) -> tuple[dict, dict]:
    """Median milliseconds per kind, and per kind and input size."""
    by_kind = defaultdict(list)
    by_size = defaultdict(lambda: defaultdict(list))
    for kind, size, seconds, _ok, _digest in records:
        by_kind[kind].append(seconds)
        by_size[kind][size].append(seconds)
    kinds = {k: {"count": len(v), "p50_ms": ms(statistics.median(v))}
             for k, v in sorted(by_kind.items())}
    sizes = {k: {s: ms(statistics.median(v)) for s, v in sorted(t.items())}
             for k, t in sorted(by_size.items())}
    return kinds, sizes


def digests(records) -> dict[int, str]:
    return {i: r[4] for i, r in enumerate(records) if r[4] is not None}


def compare_stored(workload: str, seed: int, found: dict[int, str]) -> set:
    """Indices whose digest differs from an earlier run of this seed and of
    this benchmark code in this checkout; the longer record is kept."""
    code = hashlib.sha256(b"".join(
        (HERE / f).read_bytes() for f in ("workloads.py", "loop.py")))
    store = WORK / "digests" / (
        f"{workload}-{seed}-{code.hexdigest()[:16]}.json")
    try:
        earlier = {int(i): d for i, d in json.loads(store.read_text()).items()}
    except (OSError, ValueError):
        earlier = {}
    bad = {i for i, d in found.items() if i in earlier and earlier[i] != d}
    if len(found) > len(earlier):
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(found))
        os.replace(tmp, store)
    return bad


def calibrated(run) -> list:
    """The run's records with each time scaled to a core on which the probe
    takes PROBE_REFERENCE_S."""
    return [[kind, size, seconds * PROBE_REFERENCE_S / probe, ok, digest]
            for kind, size, seconds, ok, digest, probe in run["records"]]


def measure(args) -> tuple[dict, dict]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    def set_up() -> float:
        return child(base + ["--setup-only"])[0]

    # set-up samples before and after the run, as the machine's speed drifts
    setups = [set_up() for _ in range(SETUPS // 2)]
    setup, run = child(base + ["--seconds", str(args.seconds)])
    setups += [setup] + [set_up() for _ in range(SETUPS // 2)]
    records = calibrated(run)
    looped = records[run["fixed_ops"]:]
    times = [r[2] for r in records]
    raw_times = [r[2] for r in run["records"]]
    bad = compare_stored(args.workload, args.seed, digests(records))
    failed = sum(1 for i, r in enumerate(records) if not r[3] or i in bad)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(looped) / sum(r[2] for r in looped), "1/s"),
        "op_p50_ms": (ms(statistics.median(times)), "ms"),
        "op_p90_ms": (ms(p90(times)), "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    extra = {
        "setup_samples_s": setups,
        "wall_clock": {
            "ops_per_s_all": len(records) / run["wall_s"],
            "op_p50_ms": ms(statistics.median(raw_times)),
            "op_p90_ms": ms(p90(raw_times)),
            "probe_ms": ms(run["probe_s"]),
        },
        "digest_mismatches": len(bad),
    }
    return _result(args, run, records, failed, metrics, extra)


def measure_traced(args) -> tuple[dict, dict]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    _, plain = child(base + ["--seconds", str(args.seconds)])
    _, traced = child(base + ["--rounds", str(plain["rounds"]), "--trace"])
    records, plain_records = calibrated(traced), calibrated(plain)
    if len(records) != len(plain_records):
        raise BenchError("the traced run did not repeat the untraced one")
    plain_digests, traced_digests = digests(plain_records), digests(records)
    bad = {i for i in plain_digests.keys() | traced_digests.keys()
           if plain_digests.get(i) != traced_digests.get(i)}
    failed = sum(1 for i, (a, b) in enumerate(zip(plain_records, records))
                 if not (a[3] and b[3]) or i in bad)
    scale = PROBE_REFERENCE_S / traced["probe_s"]
    metrics = {}
    for name, unit in _layer_units():
        value = traced["layers"][name]
        metrics[name] = (value * scale if unit == "s" else value, unit)
    metrics["trace.overhead"] = (sum(r[2] for r in records)
                                 / sum(r[2] for r in plain_records), "ratio")
    extra = {"wall_clock": {"untraced_s": plain["wall_s"],
                            "traced_s": traced["wall_s"]},
             "digest_mismatches": len(bad)}
    return _result(args, traced, records, failed, metrics, extra)


def _layer_units():
    sys.path.insert(0, str(HERE))
    from spans import metric_specs
    return metric_specs()


def _result(args, run, records, failed, metrics, extra):
    kinds, sizes = medians(records)
    report = {
        "machine": machine(args, run["rounds"], records),
        "kinds": kinds,
        "sizes": sizes,
        "errors": run["errors"],
        **extra,
        "records": records,
    }
    final = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return report, final


def smoke() -> int:
    """Each workload's inputs and known answers, checked quickly."""
    ok = True
    found = {}
    for workload in WORKLOADS:
        _, run = child(["--workload", workload, "--seed", "0", "--smoke"])
        failed = sum(not r[3] for r in run["records"])
        ok = ok and failed == 0 and run["repeated_inputs"] == 0
        found[workload] = [r[4] for r in run["records"] if r[4] is not None]
        print(f"# {workload}: {len(run['records'])} ops, {failed} failed, "
              f"{run['repeated_inputs']} repeated inputs")
        for error in run["errors"]:
            print(f"# {error}")
    print(json.dumps({"correct": ok, "digests": found}))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="check every workload's known answers in seconds")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cutgrids" / "__init__.py").is_file():
        print(f"error: no cutgrids sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            p.error("--workload is required")
        report, final = (measure_traced if args.trace else measure)(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({**report, **final}, indent=1))
    for key in ("machine", "kinds", "sizes", "wall_clock"):
        print(f"# {key}: {json.dumps(report[key])}")
    for error in report["errors"]:
        print(f"# failed: {error}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
