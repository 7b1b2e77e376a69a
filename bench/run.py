"""Benchmark of the ``seqcong`` CLI, end to end and layer by layer.

Run from the repository root::

    python3 bench/run.py --workload count-verify --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the benchmark spawns ``python -m seqcong.cli`` once per
job, one job at a time (a closed loop with one client), repeating the job
list for about ``--seconds``.  It checks every exit code and stdout
against :mod:`oracles` and reports the end-to-end metrics.  With
``--trace 1`` it runs the same jobs in process, with span wrappers around
each module's public functions (:mod:`layers`), and reports the per-layer
metrics.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it,
prefixed ``record``, holds the environment and every per-run sample.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"  # job stdin/stdout and span files; not tracked

import layers
import oracles
import workloads

CHILD_AS_BYTES = 512 * 2**20  # the largest seed job runs under 128 MiB
SETUP_EVERY = 4  # reference and import-only children before every fourth job
# The reference child never imports seqcong, so no change to the program
# moves it; it starts an interpreter and loads modules, as every job does.
REFERENCE_MODULES = "argparse, dataclasses, decimal, fractions, itertools, json, random, re, mpmath"
REFERENCE_S = 0.12  # the reference child's mean wall time, in seconds, that times are scaled to
CHILD_ENV = {**os.environ, "PYTHONPATH": "src"}

# name -> (unit, better, bound); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "job_p50_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
    "ok_ratio": ("ratio", "higher", 0.01),
}


@dataclass
class Sample:
    """One finished child: exit code, stdout and its own resource use."""

    rc: int
    out: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    timed_out: bool


def _limit_child() -> None:
    # runs in the child between fork and exec, so the limit binds it alone
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))


def _serve(requests, replies) -> None:
    """Launcher loop: start each requested child with its stdin and stdout
    on files, wait for it or for its time limit, and reply with its exit
    code, wall time and ``os.wait4`` rusage."""
    for line in requests:
        req = json.loads(line)
        with open(req["stdin"] or os.devnull, "rb") as fin, open(req["stdout"], "wb") as fout:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                req["argv"], cwd=ROOT, env=CHILD_ENV, preexec_fn=_limit_child,
                stdin=fin, stdout=fout, stderr=subprocess.DEVNULL,
            )
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], req["timeout"])[0]
            finally:
                os.close(pidfd)
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        replies.write(json.dumps({
            "rc": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss, "timed_out": timed_out,
        }) + "\n")
        replies.flush()


class Launcher:
    """A small process, forked before any job data exists, that starts every
    child.  Linux counts the resident size of the process that forks a
    child in that child's ``ru_maxrss``, so children forked from the main
    process, which holds megabytes of expected output, would report its
    size.  Job stdin and stdout are files, so no job data enters the
    launcher either."""

    def __init__(self, work: Path):
        self.work = work
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(req_w)
            os.close(rep_r)
            code = 0
            try:
                _serve(os.fdopen(req_r), os.fdopen(rep_w, "w"))
            except BaseException:  # never unwind into the main process's code here
                traceback.print_exc()
                code = 1
            os._exit(code)
        os.close(req_r)
        os.close(rep_w)
        self.requests = os.fdopen(req_w, "w")
        self.replies = os.fdopen(rep_r)

    def run(self, argv: list[str], stdin: str | None = None, timeout: float = workloads.JOB_TIMEOUT_S) -> Sample:
        stdin_path = None
        if stdin is not None:
            stdin_path = self.work / "job.stdin"
            stdin_path.write_text(stdin)
        stdout_path = self.work / "job.stdout"
        self.requests.write(json.dumps({
            "argv": argv, "stdin": stdin_path and str(stdin_path), "stdout": str(stdout_path),
            "timeout": timeout,
        }) + "\n")
        self.requests.flush()
        reply = self.replies.readline()
        if not reply:
            raise RuntimeError("the launcher process died")
        r = json.loads(reply)
        out = stdout_path.read_bytes().decode(errors="replace")
        return Sample(out=out, **r)

    def close(self) -> None:
        self.requests.close()
        os.waitpid(self.pid, 0)
        self.replies.close()


def import_only(launcher: Launcher, modules: str) -> float:
    """Wall time of a child that only imports `modules` and exits."""
    s = launcher.run([sys.executable, "-c", f"import {modules}"])
    if s.rc != 0 or s.timed_out:
        raise SystemExit(f"error: a child importing {modules} failed")
    return s.wall_s


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    src = sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "commit": _commit(),
        "src_sha256": src.hexdigest(),
    }


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def run_untraced(launcher: Launcher, jobs: list[workloads.Job], seconds: int, record: dict) -> dict:
    """Repeat the job list as child processes for about `seconds`, then
    reduce the samples to the end-to-end metrics.

    The shared host's speed changes by up to 2x, for seconds or for
    minutes, as other tenants load it, and child CPU time changes with it.
    So every reported time is scaled by REFERENCE_S over the mean wall time
    of the reference child in this run: seconds at a fixed host speed.  The
    reference children run before every SETUP_EVERY-th job, beside the
    import-only children that give setup_s.  A job's times fall into two
    clusters as the speed switches; a mean moves in proportion to their
    shares where a median jumps between them, so wall_s and cpu_s sum each
    job's mean over the passes.  The ``record`` keeps every unscaled sample.
    """
    import_only(launcher, "seqcong.cli")  # warm-up: may write bytecode caches
    start = time.perf_counter()
    setup: list[float] = []
    reference: list[float] = []
    samples: list[list[Sample | None]] = [[] for _ in jobs]
    failures: list[dict] = []
    passes = 0
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        passes += 1  # another pass only when one more fits in the time left
        for j, job in enumerate(jobs):
            if time.perf_counter() - start > workloads.RUN_BUDGET_S:
                samples[j].append(None)
                failures.append({"job": job.name, "pass": passes, "why": "not started: run budget spent"})
                continue
            if j % SETUP_EVERY == 0:
                reference.append(import_only(launcher, REFERENCE_MODULES))
                setup.append(import_only(launcher, "seqcong.cli"))
            s = launcher.run([sys.executable, "-m", "seqcong.cli", *job.argv], job.stdin)
            samples[j].append(s)
            if s.timed_out or not job.judge(s.rc, s.out):
                why = "timeout" if s.timed_out else f"exit {s.rc} or stdout differs"
                failures.append({"job": job.name, "pass": passes, "why": why})
    done = [[s for s in row if s is not None] for row in samples]
    walls = [s.wall_s for row in done for s in row]
    attempted = sum(len(row) for row in samples)
    unscaled = {
        "wall_s": sum(statistics.fmean(s.wall_s for s in row) for row in done if row),
        "cpu_s": sum(statistics.fmean(s.cpu_s for s in row) for row in done if row),
        "job_p50_s": statistics.median(walls) if walls else workloads.JOB_TIMEOUT_S,
        "setup_s": statistics.median(setup),
    }
    scale = REFERENCE_S / statistics.fmean(reference)
    metrics = {name: value * scale for name, value in unscaled.items()}
    metrics["peak_rss_mb"] = max((s.maxrss_kb for row in done for s in row), default=0) / 1024
    metrics["ok_ratio"] = (attempted - len(failures)) / attempted
    metrics = {name: metrics[name] for name in END_TO_END}
    record.update(
        passes=passes,
        failures=failures,
        failed_ratio=len(failures) / attempted,
        job_p50_samples=len(walls),
        scale=scale,
        unscaled=unscaled,
        reference_samples_s=reference,
        setup_samples_s=setup,
        jobs=[
            {
                "name": job.name,
                "argv": list(job.argv),
                "samples": [
                    None if s is None else
                    {"wall_s": s.wall_s, "cpu_s": s.cpu_s, "maxrss_kb": s.maxrss_kb, "rc": s.rc}
                    for s in row
                ],
            }
            for job, row in zip(jobs, samples)
        ],
    )
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def manifest_errors() -> list[str]:
    """Differences between BENCHMARK.json and the metrics reported here."""
    try:
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        return [f"BENCHMARK.json: {e}"]
    want = {
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, (u, b, _) in layers.PER_LAYER.items()],
        "workloads": sorted(workloads.WORKLOADS),
    }
    got = {
        "end_to_end": manifest.get("end_to_end"),
        "per_layer": manifest.get("per_layer"),
        "workloads": sorted(w["name"] for w in manifest.get("workloads", [])),
    }
    return [f"BENCHMARK.json {key} differs from bench/" for key in want if want[key] != got[key]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seqcong" / "cli.py").is_file():
        print(f"error: no seqcong sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    broken = oracles.self_test() + manifest_errors()
    if broken:
        print("error: self-test failed: " + "; ".join(broken), file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    record = environment(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        jobs = workloads.build(args.workload, args.seed)
        result = layers.run_traced(jobs, args.seconds, record, ROOT, CHILD_ENV, args.workload, args.seed)
    else:
        launcher = Launcher(OUT)  # before the job data exists: see Launcher
        try:
            jobs = workloads.build(args.workload, args.seed)
            result = run_untraced(launcher, jobs, args.seconds, record)
        finally:
            launcher.close()
        for name, (unit, better, _) in END_TO_END.items():
            print(f"{name:12s} {result['metrics'][name]:12.6f} {unit:6s} ({better} is better)")
        print(f"{'failed_ratio':12s} {record['failed_ratio']:12.6f} ratio  "
              f"({result['failed']} of {result['attempted']} jobs; "
              f"job_p50_s over {record['job_p50_samples']} samples in {record['passes']} passes)")
        print(f"times above are scaled by {record['scale']:.4f}; unscaled: "
              + ", ".join(f"{k} {v:.6f}" for k, v in record["unscaled"].items()))
    record["loadavg_end"] = list(os.getloadavg())
    print("record " + json.dumps(record, separators=(",", ":")))
    units = END_TO_END if not args.trace else layers.PER_LAYER
    result["metrics"] = {
        name: {"value": value, "unit": units[name][0]} for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
