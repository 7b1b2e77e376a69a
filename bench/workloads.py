"""The benchmark's three job lists, generated from a seed, each job paired
with the answer it must print.

A job is one ``seqcong`` CLI call.  The seed picks the weight tables, the A
table and the small partitions; the program only ever receives the
generated text, and the expected output is recomputed here by
:mod:`oracles`.  Sizes were scaled so one pass over a list takes a few
seconds on a 2-core machine; the mix of each list is fixed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracles

JOB_TIMEOUT_S = 30.0  # a seed job takes at most a few seconds
RUN_BUDGET_S = 120.0  # jobs not started by then count as failed, so a run ends within 180 s


@dataclass(frozen=True)
class Job:
    """One CLI call: its arguments, its stdin, and how to judge its stdout."""

    name: str
    argv: tuple[str, ...]
    rc: int
    expect: Optional[str] = None  # exact stdout, when the output is fixed text
    check: Optional[Callable[[str], bool]] = None
    stdin: Optional[str] = None
    huge: bool = False  # cost grows with part values, not with input length

    def judge(self, rc: int, out: str) -> bool:
        if rc != self.rc:
            return False
        if self.expect is not None:
            return out == self.expect
        return self.check(out)


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _lines(rows) -> str:
    return "".join(row + "\n" for row in rows)


def _weight_table(rng: random.Random, extent: int) -> tuple[str, list[Fraction]]:
    """A ``table:`` weight spec of small nonzero rationals and its values."""
    values = [
        Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 4))
        for _ in range(extent)
    ]
    return "table:" + ",".join(str(v) for v in values), values


def _series_text(coeffs, var: str) -> str:
    return _lines(f"{var}^{k}: {c}" for k, c in enumerate(coeffs) if c)


def _count_job(family: str, expected: int) -> Job:
    return Job(f"enum {family} --count-only", ("enum", family, "--count-only"), 0, f"{expected}\n")


def _verify_job(identity: str, qtrunc: int, *extra: str) -> Job:
    argv = ("series", "verify", identity, "--qtrunc", str(qtrunc), *extra)
    return Job(f"series verify {identity} q^{qtrunc}", argv, 0, f"PASS {identity} qtrunc={qtrunc}\n")


# ---------------------------------------------------------------------------
# count-verify: enumeration used as counting


SEQCONG_LG = 44
ALL_N = 44
STEP_LG = 72
SNA_ODDS = 60
PBA_N = 32
PRODUCT_SUM_Q = 26
PRODUCT_SEQCONG_Q = 28
DISTINCT_Q = 50
TWO_VAR_VERIFY = (12, 30)
IDEAL_VALUES = (1, 2, 3, 5, 7, 11)
IDEAL_SIZE = 30
ZETA_T, ZETA_S, ZETA_DEPTH = (2, 3, 5, 7), 2, 40


def _ideal_check(a_terms: tuple[int, ...], size: int) -> Callable[[str], bool]:
    counts = oracles.restricted_counts(a_terms, size)
    differs = oracles.pba_first_difference(a_terms, size)

    def check(out: str) -> bool:
        try:
            got = json.loads(out)
        except ValueError:
            return False
        return (
            got.get("ok") is True
            and got.get("counts") == counts
            and got.get("sets_differ_at") == differs
        )

    return check


def _zeta_text() -> str:
    total, product, terms = oracles.zeta_sides(ZETA_T, ZETA_S, ZETA_DEPTH)
    return _lines([
        f"sum_side {oracles.fixed_point(total)}",
        f"product_side {oracles.fixed_point(product)}",
        f"depth {ZETA_DEPTH} terms {terms}",
    ])


def count_verify(rng: random.Random) -> list[Job]:
    p = oracles.partition_counts(max(SEQCONG_LG, ALL_N, PBA_N))
    q = oracles.distinct_counts(max(STEP_LG, SNA_ODDS))
    odd = oracles.restricted_counts(range(1, SNA_ODDS + 1, 2), SNA_ODDS)
    f_sum, _ = _weight_table(rng, PRODUCT_SUM_Q)
    f_seq, _ = _weight_table(rng, PRODUCT_SEQCONG_Q)
    a_terms = tuple(rng.sample(IDEAL_VALUES, len(IDEAL_VALUES)))
    x2, q2 = TWO_VAR_VERIFY
    return [
        _count_job(f"seqcong-lg:{SEQCONG_LG}", p[SEQCONG_LG]),
        _count_job(f"all:{ALL_N}", p[ALL_N]),
        _count_job(f"step-lg:{STEP_LG}", q[STEP_LG]),
        _count_job(f"sna-lg:A=odds;n={SNA_ODDS}", odd[SNA_ODDS]),
        _count_job(f"pba:A=naturals;B=naturals;n={PBA_N}", p[PBA_N]),
        _verify_job("product-sum", PRODUCT_SUM_Q, "--f", f_sum),
        _verify_job("product-seqcong", PRODUCT_SEQCONG_Q, "--f", f_seq),
        _verify_job("distinct", DISTINCT_Q),
        _verify_job("two-variable", q2, "--xtrunc", str(x2), "--A", "naturals", "--B", "naturals"),
        Job(
            f"ideal invariance to {IDEAL_SIZE}",
            ("ideal", "invariance", "--A", ",".join(map(str, a_terms)), "--B", "naturals",
             "--max-size", str(IDEAL_SIZE)),
            0,
            check=_ideal_check(a_terms, IDEAL_SIZE),
        ),
        Job(
            f"zeta depth {ZETA_DEPTH}",
            ("zeta", "--T", ",".join(map(str, ZETA_T)), "--s", str(ZETA_S), "--depth", str(ZETA_DEPTH)),
            0,
            _zeta_text(),
        ),
    ]


# ---------------------------------------------------------------------------
# series-expand: the product-side kernel and Fraction growth, no enumeration


# sized so every job takes about the same time, which keeps job_p50_s off
# the gap between a short and a long job
PRODUCT_TABLE_Q = 150
PRODUCT_ONE_Q = 180
DISTINCT_PRODUCT_Q = 250
EULER_ODDS_X = 250
TWO_VAR_EXPAND = (60, 200)


def series_expand(rng: random.Random) -> list[Job]:
    spec, weights = _weight_table(rng, PRODUCT_TABLE_Q)
    xt, qt = TWO_VAR_EXPAND
    pairs = [(n, n) for n in range(1, qt + 1)]
    two_var = oracles.two_variable_series(pairs, xt, qt)
    two_var_text = _lines(
        f"x^{x} q^{q}: {c}" for (x, q), c in sorted(two_var.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    )
    expand = ("series", "expand")
    return [
        Job(f"expand product q^{PRODUCT_TABLE_Q} table",
            (*expand, "product", "--qtrunc", str(PRODUCT_TABLE_Q), "--f", spec), 0,
            _series_text(oracles.product_series(weights, PRODUCT_TABLE_Q), "q")),
        Job(f"expand product q^{PRODUCT_ONE_Q} one",
            (*expand, "product", "--qtrunc", str(PRODUCT_ONE_Q), "--f", "one"), 0,
            _series_text(oracles.partition_counts(PRODUCT_ONE_Q), "q")),
        Job(f"expand distinct-product q^{DISTINCT_PRODUCT_Q}",
            (*expand, "distinct-product", "--qtrunc", str(DISTINCT_PRODUCT_Q)), 0,
            _series_text(oracles.distinct_counts(DISTINCT_PRODUCT_Q), "q")),
        Job(f"expand euler odds x^{EULER_ODDS_X}",
            (*expand, "euler", "--A", "odds", "--xtrunc", str(EULER_ODDS_X)), 0,
            _series_text(oracles.restricted_counts(range(1, EULER_ODDS_X + 1, 2), EULER_ODDS_X), "x")),
        Job(f"expand two-variable x^{xt} q^{qt}",
            (*expand, "two-variable", "--A", "naturals", "--B", "naturals",
             "--xtrunc", str(xt), "--qtrunc", str(qt)), 0,
            two_var_text),
    ]


# ---------------------------------------------------------------------------
# member-io: every member built, printed, parsed and checked


STREAM_LG = 36
SMALL_CALLS_PER_OP = 3
HUGE_PART = 1_000_000
HUGE_ONES = 500_000


def _small_partition(rng: random.Random) -> tuple[int, ...]:
    return tuple(sorted((rng.randint(1, 9) for _ in range(rng.randint(1, 6))), reverse=True))


def _freqcong_member(rng: random.Random) -> tuple[int, ...]:
    parts: list[int] = []
    for v in rng.sample(range(1, 5), rng.randint(1, 3)):
        parts += [v] * (v * rng.randint(1, 2))
    return tuple(sorted(parts, reverse=True))


def _partition_text(rng: random.Random, parts: tuple[int, ...]) -> str:
    """JSON array or frequency form, chosen by the seed."""
    if rng.random() < 0.5:
        return _dump(list(parts))
    return " ".join(f"{v}^{parts.count(v)}" for v in sorted(set(parts)))


def _report_check(expected: list[tuple[bool, Optional[int]]]) -> Callable[[str], bool]:
    """stdout holds one JSON report per input; `expected` lists each
    report's verdict and the index of its first violation."""

    def check(out: str) -> bool:
        rows = out.splitlines()
        if len(rows) != len(expected):
            return False
        for row, (ok, index) in zip(rows, expected):
            try:
                got = json.loads(row)
            except ValueError:
                return False
            if got.get("ok") is not ok or got.get("index") != index:
                return False
        return True

    return check


def _violation_check(index: Optional[int]) -> Callable[[str], bool]:
    return _report_check([(index is None, index)])


def _orbit_text(lam: tuple[int, ...]) -> str:
    conj = oracles.conjugate(lam)
    if conj == lam:
        states, cycle = [lam, oracles.pi(lam), lam], 1
    else:
        states, cycle = [lam, oracles.pi(lam), conj, oracles.pi(conj), lam], 2
    return _dump({"states": [list(s) for s in states], "cycle_length": cycle, "closed": True}) + "\n"


def member_io(rng: random.Random) -> list[Job]:
    members = sorted((oracles.pi(lam) for lam in oracles.partitions(STREAM_LG)), reverse=True)
    stream = _lines(_dump(list(m)) for m in members)
    jobs = [
        Job(f"enum seqcong-lg:{STREAM_LG}", ("enum", f"seqcong-lg:{STREAM_LG}"), 0, stream),
        Job(f"check seqcong < {len(members)} lines", ("check", "seqcong"), 0,
            check=_report_check([(True, None)] * len(members)), stdin=stream),
    ]
    for k in range(SMALL_CALLS_PER_OP):
        lam = _small_partition(rng)
        jobs.append(Job(f"map pi #{k}", ("map", "pi", _partition_text(rng, lam)), 0,
                        _dump(list(oracles.pi(lam))) + "\n"))
        lam = _small_partition(rng)
        jobs.append(Job(f"map sigma-inv #{k}", ("map", "sigma-inv", _partition_text(rng, lam)), 0,
                        _dump(list(oracles.pi(oracles.conjugate(lam)))) + "\n"))
        lam = _small_partition(rng)
        jobs.append(Job(f"map conjugate #{k}", ("map", "conjugate", _partition_text(rng, lam)), 0,
                        _dump(list(oracles.conjugate(lam))) + "\n"))
        lam = _small_partition(rng)
        jobs.append(Job(f"orbit #{k}", ("orbit", _partition_text(rng, lam)), 0, _orbit_text(lam)))
        # alternate members and arbitrary partitions so both exit codes occur
        lam = oracles.pi(_small_partition(rng)) if k % 2 else _small_partition(rng)
        index = oracles.seqcong_violation(lam)
        jobs.append(Job(f"check seqcong #{k}", ("check", "seqcong", _partition_text(rng, lam)),
                        0 if index is None else 1, check=_violation_check(index)))
        lam = _freqcong_member(rng) if k % 2 == 0 else _small_partition(rng)
        index = oracles.freqcong_violation(lam)
        jobs.append(Job(f"check freqcong #{k}", ("check", "freqcong", _partition_text(rng, lam)),
                        0 if index is None else 1, check=_violation_check(index)))
    jobs += [
        Job(f"map conjugate [{HUGE_PART}]", ("map", "conjugate", f"[{HUGE_PART}]"), 0,
            _dump([1] * HUGE_PART) + "\n", huge=True),
        Job(f"map pi 1^{HUGE_ONES}", ("map", "pi", f"1^{HUGE_ONES}"), 0,
            _dump([HUGE_ONES] * HUGE_ONES) + "\n", huge=True),
        Job(f"check selfconj [{HUGE_PART}]", ("check", "selfconj", f"[{HUGE_PART}]"), 1,
            check=_report_check([(False, None)]), huge=True),
    ]
    return jobs


WORKLOADS = {
    "count-verify": count_verify,
    "series-expand": series_expand,
    "member-io": member_io,
}


def build(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
