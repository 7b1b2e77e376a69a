"""The traced run: the same jobs in process, with spans around each layer.

Layers are the package's modules.  Wrappers installed from here (the
package itself is unchanged) open a span around every public function of
``families``, ``maps``, ``predicates`` and ``series`` that the CLI reaches,
around the names ``series`` imports from ``families``, and around
``BivariateSeries.__mul__`` and ``Partition.conjugate``.  ``Partition``
construction and ``SequenceSpec.at``/``index_of`` are counted, not timed.

A span records its name, start, end, parent and job.  A generator's span
covers every resumption of it, so its time is the time spent producing
items, not the time its consumer held it open.  Self time is a span's time
minus the time of the spans opened inside it.  Spans stay in memory and are
written to ``bench/out/`` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from workloads import JOB_TIMEOUT_S, RUN_BUDGET_S

IMPORT_SAMPLES = 5
REPLAY_SAMPLE = 20_000
REPLAY_REPEATS = 5
TRACED_AS_BYTES = 2**30  # this process runs the jobs; at the seed it peaks near 130 MiB

# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "cli.import_s": ("s", "lower", "setup_s on every workload; job_p50_s on member-io"),
    "cli.mpmath_import_s": ("s", "lower", "setup_s on every workload; job_p50_s on member-io"),
    "cli.self_s": ("s", "lower", "wall_s on member-io and series-expand"),
    "cli.stdout_mb": ("MB", "lower", "wall_s on member-io and series-expand"),
    "partition.construct_us": ("us", "lower", "wall_s and cpu_s on count-verify and member-io; flat on series-expand"),
    "partition.construct_calls": ("count", "lower", "wall_s and cpu_s on count-verify and member-io; flat on series-expand"),
    "partition.huge_peak_alloc_mb": ("MB", "lower", "peak_rss_mb and wall_s on member-io"),
    "partition.conjugate_huge_s": ("s", "lower", "peak_rss_mb and wall_s on member-io"),
    "maps.huge_s": ("s", "lower", "peak_rss_mb and wall_s on member-io"),
    "maps.small_call_us": ("us", "lower", "wall_s on member-io"),
    "predicates.check_us": ("us", "lower", "wall_s on member-io"),
    "predicates.check_calls": ("count", "lower", "wall_s on member-io"),
    "families.enumerate_self_s": ("s", "lower", "wall_s and cpu_s on count-verify"),
    "families.members": ("count", "lower", "wall_s and cpu_s on count-verify; must not drop on member-io"),
    "families.members_per_s": ("1/s", "higher", "wall_s and cpu_s on count-verify"),
    "families.ideal_self_s": ("s", "lower", "wall_s on count-verify"),
    "sequences.lookup_calls": ("count", "lower", "wall_s on count-verify"),
    "series.mul_calls": ("count", "lower", "wall_s and cpu_s on series-expand"),
    "series.mul_self_s": ("s", "lower", "wall_s and cpu_s on series-expand"),
    "series.coeff_ops": ("count", "lower", "wall_s and cpu_s on series-expand"),
    "series.peak_terms": ("count", "lower", "wall_s and cpu_s on series-expand"),
    "series.coeff_max_bits": ("bits", "lower", "wall_s and cpu_s on series-expand"),
    "series.product_side_self_s": ("s", "lower", "wall_s and cpu_s on series-expand"),
    "series.sum_side_self_s": ("s", "lower", "wall_s on count-verify"),
    "series.zeta_self_s": ("s", "lower", "wall_s on count-verify"),
    "trace.overhead_s": ("s", "lower", "nothing: traced minus untraced in-process wall time"),
}

IDEAL = {
    "families.check_ideal_closure", "families.check_quasi_ideal", "families.count_invariance_suite",
    "families.counts_by_size", "families.ideal_equivalent_upto", "families.restricted_count",
    "families.scaled_deletion",
}
MEMBER_SOURCES = {"families.enumerate_family", "families.iter_pba_by_size"}
PRODUCT_SIDE = {
    "series.product_side", "series.two_var_product_side", "series.distinct_product_side",
    "series.euler_limit_side", "series.geometric_factor",
}
SUM_SIDE = {
    "series.partition_sum_side", "series.seqcong_sum_side", "series.step_bounded_sum_side",
    "series.pba_sum_side",
}


class Tracer:
    """Spans of one pass, with self time folded per name, and the time of
    calls into each layer from outside it folded per layer and job kind
    ("huge" jobs are those whose cost grows with part values)."""

    def __init__(self, seed: int):
        self.stack: list[list] = []  # [span id, name, segment start, child time]
        self.spans: list[list] = []  # [id, name, start, end, busy, parent, job]
        self.job = ""
        self.kind = "small"
        self.self_s: Counter = Counter()
        self.outer_s: Counter = Counter()  # (kind, layer): time of calls from another layer
        self.outer_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peak_terms = 0
        self.coeff_max_bits = 0
        self.members: list[tuple[int, ...]] = []
        self._rng = random.Random(seed)

    def open(self, name: str) -> int:
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append([len(self.spans), name, time.perf_counter(), None, 0.0, parent, self.job])
        return len(self.spans) - 1

    def enter(self, span: int) -> list:
        frame = [span, self.spans[span][1], time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        now = time.perf_counter()
        span, name, t0, child = frame
        self.stack.pop()
        dt = now - t0
        record = self.spans[span]
        record[3] = now
        record[4] += dt
        self.self_s[name] += dt - child
        layer = name.split(".", 1)[0]
        if self.stack:
            self.stack[-1][3] += dt
        if not self.stack or self.stack[-1][1].split(".", 1)[0] != layer:
            self.outer_s[self.kind, layer] += dt
            self.outer_calls[self.kind, layer] += 1

    def exclude(self, t0: float) -> None:
        """Charge the tracer's own work since `t0` to no span."""
        if self.stack:
            self.stack[-1][3] += time.perf_counter() - t0

    def iterate(self, span: int, it, members: bool):
        try:
            while True:
                frame = self.enter(span)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.leave(frame)
                if members:
                    t0 = time.perf_counter()
                    self.counts["families.members"] += 1
                    self._sample(item.parts)
                    self.exclude(t0)
                yield item
        finally:
            close = getattr(it, "close", None)
            if close:
                close()

    def _sample(self, parts: tuple[int, ...]) -> None:
        n = self.counts["families.members"]
        if len(self.members) < REPLAY_SAMPLE:
            self.members.append(parts)
        else:
            k = self._rng.randrange(n)
            if k < REPLAY_SAMPLE:
                self.members[k] = parts


def _terms(s) -> int:
    coeffs = getattr(s, "_coeffs", None)
    return len(coeffs) if coeffs is not None else len(s.items())


def _span_wrapper(tracer: Tracer, name: str, fn):
    members = name in MEMBER_SOURCES

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        frame = tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(frame)
        if inspect.isgenerator(result):
            return tracer.iterate(span, result, members)
        return result

    return wrapper


def _mul_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def mul(a, b):
        frame = tracer.enter(tracer.open("series.mul"))
        try:
            result = fn(a, b)
        finally:
            tracer.leave(frame)
        t0 = time.perf_counter()
        tracer.counts["series.coeff_ops"] += _terms(a) * _terms(b)
        tracer.peak_terms = max(tracer.peak_terms, _terms(result))
        for _, c in result.items():
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > tracer.coeff_max_bits:
                tracer.coeff_max_bits = bits
        tracer.exclude(t0)
        return result

    return mul


def _count_wrapper(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return counted


@contextmanager
def installed(tracer: Tracer):
    """Patch the wrappers in, and restore every original on exit."""
    from seqcong import cli, families, maps, partition, predicates, sequences, series

    saved: list[tuple[object, str, object]] = []
    wrapped: dict[object, object] = {}

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for mod in (families, maps, predicates, series):
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, fn in list(vars(mod).items()):
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                wrapped[fn] = _span_wrapper(tracer, f"{layer}.{attr}", fn)
                patch(mod, attr, wrapped[fn])
    for attr, fn in list(vars(series).items()):
        if inspect.isfunction(fn) and fn.__module__ == families.__name__ and fn in wrapped:
            patch(series, attr, wrapped[fn])
    for table in (cli._MAP_OPS, cli._SIMPLE_FAMILIES):
        for key, fn in list(table.items()):
            if fn in wrapped:
                saved.append((table, key, fn))
                table[key] = wrapped[fn]
    patch(series.BivariateSeries, "__mul__", _mul_wrapper(tracer, series.BivariateSeries.__mul__))
    patch(partition.Partition, "conjugate",
          _span_wrapper(tracer, "partition.conjugate", partition.Partition.conjugate))
    patch(partition.Partition, "__init__",
          _count_wrapper(tracer, "partition.construct_calls", partition.Partition.__init__))
    for attr in ("at", "index_of"):
        spec = sequences.SequenceSpec
        patch(spec, attr, _count_wrapper(tracer, "sequences.lookup_calls", getattr(spec, attr)))
    try:
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)


class JobTimeout(Exception):
    """Raised by SIGALRM when an in-process job passes its time limit."""


def _on_alarm(signum, frame):
    raise JobTimeout


def call_cli(job, tracer: Tracer | None = None) -> tuple[int, str]:
    """Run one job through ``seqcong.cli.main`` with stdin, stdout and
    stderr swapped for buffers.  An uncaught exception, a timeout included,
    yields exit -1."""
    from seqcong import cli

    out = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(job.stdin or ""), out, io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    try:
        if tracer is None:
            rc = cli.main(list(job.argv))
        else:
            frame = tracer.enter(tracer.open("cli.main"))
            try:
                rc = cli.main(list(job.argv))
            finally:
                tracer.leave(frame)
    except Exception:  # a crash is a failed job, not a failed benchmark
        rc = -1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, out.getvalue()


def _pass(jobs, tracer: Tracer | None, failures: list, label: str, deadline: float) -> tuple[float, int]:
    """One pass over the jobs; returns its wall time and stdout bytes."""
    written = 0
    t0 = time.perf_counter()
    for job in jobs:
        if time.perf_counter() > deadline:
            failures.append({"job": job.name, "pass": label, "why": "not started: run budget spent"})
            continue
        if tracer is not None:
            tracer.job, tracer.kind = job.name, "huge" if job.huge else "small"
        rc, out = call_cli(job, tracer)
        written += len(out.encode())
        if not job.judge(rc, out):
            failures.append({"job": job.name, "pass": label, "why": f"exit {rc} or stdout differs"})
    return time.perf_counter() - t0, written


def _layer_metrics(t: Tracer, stdout_bytes: int) -> dict[str, float]:
    def mean_us(kind: str, layer: str) -> float:
        calls = t.outer_calls[kind, layer]
        return t.outer_s[kind, layer] / calls * 1e6 if calls else 0.0

    enumerate_s = sum(v for k, v in t.self_s.items() if k.startswith("families.") and k not in IDEAL)
    members = t.counts["families.members"]
    return {
        "cli.self_s": t.self_s["cli.main"],
        "cli.stdout_mb": stdout_bytes / 2**20,
        "partition.construct_calls": t.counts["partition.construct_calls"],
        "partition.conjugate_huge_s": t.outer_s["huge", "partition"],  # conjugate is its only span
        "maps.huge_s": t.outer_s["huge", "maps"],
        "maps.small_call_us": mean_us("small", "maps"),
        "predicates.check_us": mean_us("small", "predicates"),
        "predicates.check_calls": t.outer_calls["small", "predicates"] + t.outer_calls["huge", "predicates"],
        "families.enumerate_self_s": enumerate_s,
        "families.members": members,
        "families.members_per_s": members / enumerate_s if enumerate_s else 0.0,
        "families.ideal_self_s": sum(t.self_s[k] for k in IDEAL),
        "sequences.lookup_calls": t.counts["sequences.lookup_calls"],
        "series.mul_calls": sum(1 for s in t.spans if s[1] == "series.mul"),
        "series.mul_self_s": t.self_s["series.mul"],
        "series.coeff_ops": t.counts["series.coeff_ops"],
        "series.peak_terms": t.peak_terms,
        "series.coeff_max_bits": t.coeff_max_bits,
        "series.product_side_self_s": sum(t.self_s[k] for k in PRODUCT_SIDE),
        "series.sum_side_self_s": sum(t.self_s[k] for k in SUM_SIDE),
        "series.zeta_self_s": t.self_s["series.partition_zeta"],
    }


def import_times(root: Path, env: dict) -> tuple[list[float], list[float]]:
    """Cumulative ``-X importtime`` of ``seqcong.cli`` and of ``mpmath`` in
    fresh children, after one warm-up child."""
    cli_s, mp_s = [], []
    for k in range(IMPORT_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import seqcong.cli"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e6
        if k:
            cli_s.append(cumulative.get("seqcong.cli", 0.0))
            mp_s.append(cumulative.get("mpmath", 0.0))
    return cli_s, mp_s


def replay_us(members: list[tuple[int, ...]]) -> list[float]:
    """Mean microseconds of ``Partition(parts)`` over the sampled member
    tuples, once per repeat."""
    from seqcong.partition import Partition

    if not members:
        return [0.0]
    out = []
    for _ in range(REPLAY_REPEATS):
        t0 = time.perf_counter()
        for parts in members:
            Partition(parts)
        out.append((time.perf_counter() - t0) / len(members) * 1e6)
    return out


def huge_peak_mb(jobs) -> float:
    """Largest ``tracemalloc`` peak over the jobs whose cost grows with part
    values; 0 for a workload without such jobs."""
    peak = 0
    tracemalloc.start()
    try:
        for job in (j for j in jobs if j.huge):
            tracemalloc.reset_peak()
            call_cli(job)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peak / 2**20


def run_traced(jobs, seconds: int, record: dict, root: Path, env: dict, workload: str, seed: int) -> dict:
    """Measure import times and the huge jobs' allocation peak, then
    alternate untraced and traced in-process passes for the rest of about
    `seconds`, then replay the sampled members."""
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    resource.setrlimit(resource.RLIMIT_AS, (TRACED_AS_BYTES, TRACED_AS_BYTES))
    sys.path.insert(0, str(root / "src"))
    per_pass: dict[str, list[float]] = defaultdict(list)
    per_pass["cli.import_s"], per_pass["cli.mpmath_import_s"] = import_times(root, env)
    per_pass["partition.huge_peak_alloc_mb"] = [huge_peak_mb(jobs)]
    failures: list[dict] = []
    passes = 0
    tracer = None
    loop = time.perf_counter()
    while passes == 0 or time.perf_counter() - start + (time.perf_counter() - loop) / passes <= seconds:
        passes += 1  # another pair only when one more fits in the time left
        untraced_s, _ = _pass(jobs, None, failures, f"untraced {passes}", deadline)
        tracer = Tracer(seed)
        with installed(tracer):
            traced_s, written = _pass(jobs, tracer, failures, f"traced {passes}", deadline)
        for name, value in _layer_metrics(tracer, written).items():
            per_pass[name].append(value)
        per_pass["trace.overhead_s"].append(traced_s - untraced_s)
        per_pass["trace.traced_s"].append(traced_s)
        per_pass["trace.untraced_s"].append(untraced_s)
    per_pass["partition.construct_us"] = replay_us(tracer.members)

    spans_path = root / "bench" / "out" / f"spans-{workload}.jsonl"  # the last run's
    with spans_path.open("w") as f:
        for sid, name, t0, t1, busy, parent, job in tracer.spans:
            f.write(json.dumps({"id": sid, "name": name, "start": t0 - start, "end": t1 - start,
                                "busy": busy, "parent": parent, "job": job}) + "\n")

    metrics = {name: statistics.median(per_pass[name]) for name in PER_LAYER}
    for name, (unit, better, moves) in PER_LAYER.items():
        print(f"{name:30s} {metrics[name]:16.6f} {unit:6s} moves {moves}")
    print(f"{'trace overhead':30s} {metrics['trace.overhead_s']:16.6f} s      "
          f"traced {statistics.median(per_pass['trace.traced_s']):.6f} s - "
          f"untraced {statistics.median(per_pass['trace.untraced_s']):.6f} s")
    attempted = 2 * passes * len(jobs)
    record.update(passes=passes, failures=failures, failed_ratio=len(failures) / attempted,
                  spans=str(spans_path.relative_to(root)), span_count=len(tracer.spans),
                  per_pass=per_pass, moves={k: v[2] for k, v in PER_LAYER.items()})
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
