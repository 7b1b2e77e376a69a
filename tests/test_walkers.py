"""The run walkers and the one-walk sum sides against per-part references.

The references below are the walkers the package used before its walkers
picked whole runs: each builds a member one part at a time on a list, and
the sum sides weigh every member anew.  The package must give the
same streams, in the same order, with the same errors, and the same sums.
"""

import ast
import time
from fractions import Fraction
from math import prod
from typing import Callable, Iterator

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from seqcong import (
    BivariateSeries,
    Partition,
    SeqcongError,
    SequenceSpec,
    WeightSpec,
    all_of_size,
    distinct_of_size,
    enumerate_family,
    is_member_sna,
    partition_sum_side,
    partition_zeta,
    parts_in,
    pba_length,
    seqcong_largest,
    sna_largest,
    step_bounded_largest,
)
from seqcong import _walkers
from seqcong._counters import _pba_value_pairs
from test_families import PBA_SPECS
from test_series import weights

# ---------------------------------------------------------------------------
# per-part references


def ref_by_size(n: int, gap: int) -> Iterator[tuple[int, ...]]:
    """Parts summing to n, each at most the one before minus `gap`."""

    def rec(rem, top, prefix):
        for k in range(min(rem, top), 0, -1):
            if k == rem:
                yield (*prefix, k)
            else:
                yield from rec(rem - k, k - gap, prefix + [k])

    return iter([()]) if n == 0 else rec(n, n, [])


def ref_parts_in(part_set, n: int) -> Iterator[tuple[int, ...]]:
    allowed = sorted(set(part_set), reverse=True)

    def rec(rem, idx, prefix):
        for k in range(idx, len(allowed)):
            v = allowed[k]
            if v == rem:
                yield (*prefix, v)
            elif v < rem:
                yield from rec(rem - v, k, prefix + [v])

    return iter([()]) if n == 0 else rec(n, 0, [])


def ref_from_largest(n: int, level: Callable) -> Iterator[tuple[int, ...]]:
    """``level(i, c)`` gives the next parts after a prefix of depth i ending
    in c, and whether the prefix is a member; members after extensions."""

    def rec(prefix):
        nxt, stop = level(len(prefix), prefix[-1])
        for c in nxt:
            yield from rec(prefix + [c])
        if stop:
            yield tuple(prefix)

    return iter([()]) if n == 0 else rec([n])


def ref_seqcong_lg(n):
    return ref_from_largest(n, lambda i, c: (range(c, i, -i), c % i == 0))


def ref_step_lg(n):
    return ref_from_largest(
        n, lambda i, c: ((c, c - i) if c - i > i else (c,) if c > i else (), c == i)
    )


def ref_sna_lg(a_seq, n):
    if not a_seq.strictly_increasing:
        raise _Unbounded

    def level(i, c):
        a_i = a_seq.at(i)
        nxt = range(c, a_seq.at(i + 1) - 1, -a_i) if c > a_i else ()
        return nxt, c % a_i == 0

    return ref_from_largest(n, level)


class _Unbounded(Exception):
    """The reference's stand-in for the package's ResourceBound."""


def ref_pba_len(a_seq, b_seq, n):
    """Every member of length n, built part by part, then sorted."""
    pairs = _pba_value_pairs(a_seq, b_seq, n, lambda a, b: a, "pairs")
    members = []

    def rec(idx, rem, parts):
        if rem == 0:
            members.append(tuple(sorted(parts, reverse=True)))
        elif idx < len(pairs):
            b, a = pairs[idx]
            for m in range(0, rem + 1, a):
                rec(idx + 1, rem - m, parts + [b] * m)

    rec(0, n, [])
    return iter(sorted(members, reverse=True))


def outcome(stream: Callable[[], Iterator]):
    """Everything the stream yields before it ends or raises, and the
    error's type name and message (None if it ends)."""
    items = []
    try:
        for item in stream():
            items.append(item)
    except _Unbounded:
        return items, ("ResourceBound", None)
    except SeqcongError as e:
        return items, (type(e).__name__, str(e))
    return items, None


def package_outcome(desc):
    items, error = outcome(lambda: enumerate_family(desc))
    for p in items:  # the runs a walker gave are canonical
        assert p.runs == Partition(p.parts).runs
    if error is not None and error[0] == "ResourceBound":
        error = ("ResourceBound", None)
    return [p.parts for p in items], error


# ---------------------------------------------------------------------------
# streams


@pytest.mark.parametrize(
    "family, reference",
    [
        (all_of_size, lambda n: ref_by_size(n, 0)),
        (distinct_of_size, lambda n: ref_by_size(n, 1)),
        (seqcong_largest, ref_seqcong_lg),
        (step_bounded_largest, ref_step_lg),
    ],
)
def test_streams_match_the_per_part_walkers(family, reference):
    for n in range(23):
        assert package_outcome(family(n)) == outcome(lambda: reference(n))


PRIMES = SequenceSpec.table([2, 3, 5, 7, 11, 13, 17, 19, 23])
sna_sequences = st.one_of(
    st.sampled_from(
        [
            SequenceSpec.odds(),
            SequenceSpec.naturals(),
            PRIMES,
            SequenceSpec.table([2, 3]),  # short: raises ExtentExceeded past 3
            SequenceSpec.table([1, 4, 3]),  # not increasing: ResourceBound
            SequenceSpec.constant(2),
        ]
    ),
    st.lists(st.integers(1, 12), max_size=6).map(SequenceSpec.table),
)


@settings(deadline=None)
@given(a_seq=sna_sequences, n=st.integers(0, 22))
def test_sna_streams_match(a_seq, n):
    assert package_outcome(sna_largest(a_seq, n)) == outcome(lambda: ref_sna_lg(a_seq, n))


@settings(deadline=None)
@given(part_set=st.sets(st.integers(1, 9), max_size=4), n=st.integers(0, 22))
def test_parts_in_streams_match(part_set, n):
    assert package_outcome(parts_in(part_set, n)) == outcome(lambda: ref_parts_in(part_set, n))


def test_parts_in_stops_at_a_remainder_off_the_gcd():
    # every sum of 4s and 6s is even: the top level returns at once, where
    # offering each multiplicity of 6 would walk on in n
    start = time.perf_counter()
    assert list(enumerate_family(parts_in([4, 6], 10**30 + 1))) == []
    assert time.perf_counter() - start < 0.5


@settings(deadline=None)
@given(spec=st.sampled_from(PBA_SPECS), n=st.integers(0, 22))
def test_pba_streams_match(spec, n):
    a_seq, b_seq = spec
    assert package_outcome(pba_length(a_seq, b_seq, n)) == outcome(
        lambda: ref_pba_len(a_seq, b_seq, n)
    )


HUGE = 10**8


@pytest.mark.parametrize(
    "desc, runs",
    [
        *(
            (family(n), ((n, n),))  # A is read lazily, as a range, at any n
            for family in (seqcong_largest, step_bounded_largest,
                           lambda n: sna_largest(SequenceSpec.naturals(), n))
            for n in (HUGE, 10**30)
        ),
        (parts_in([1], HUGE), ((1, HUGE),)),
        (all_of_size(HUGE), ((HUGE, 1),)),
    ],
)
def test_a_first_member_of_one_run_is_built_as_one_run(desc, runs):
    assert next(enumerate_family(desc)).runs == runs


def test_the_sna_walker_computes_its_run_ends():
    # the second member ends its run at a_j = c/2; reading A up to c/2 to
    # find that end would take seconds and hundreds of megabytes
    start = time.perf_counter()
    members = enumerate_family(sna_largest(SequenceSpec.naturals(), HUGE))
    next(members)
    assert next(members).runs == ((HUGE, HUGE // 2),)
    assert time.perf_counter() - start < 0.5


def test_the_odds_walk_skips_the_ends_that_only_stop(run_limited):
    # over the odds, an odd c has about c/12 run ends, (c - 2)/3 < a_j < c/2,
    # whose one continuation c - a_j is even and below 2 a_{j+1}, so that no
    # member follows it; at c = 10^30 - 1 a walk through them would not end,
    # so the walk runs in a child, which the fixture stops after 10 s
    c, odds = 10**30 - 1, SequenceSpec.odds()
    code = ("from itertools import islice; from seqcong import SequenceSpec, enumerate_family, sna_largest; "
            f"print([p.runs for p in islice(enumerate_family(sna_largest(SequenceSpec.odds(), {c})), 41)])")
    done, elapsed = run_limited(code=code)
    assert done.returncode == 0, done.stderr
    members = [Partition.from_frequencies(dict(runs)) for runs in ast.literal_eval(done.stdout)]
    # c copies of c, then the run that stops at a_j = c/3, e_j = 3
    assert [p.runs for p in members[:2]] == [((c, (c + 1) // 2),), ((c, (c // 3 + 1) // 2),)]
    assert len(members) == 41 and all(p.largest == c and is_member_sna(p, odds).ok for p in members)
    assert all(p.runs > q.runs for p, q in zip(members, members[1:]))
    assert elapsed < 2.0


@pytest.mark.parametrize(
    "desc, shape",
    [
        # (levels opened, members yielded): a walker that opens more levels
        # per member than these pinned counts shows here
        (seqcong_largest(36), (10144, 17977)),
        (sna_largest(SequenceSpec.naturals(), 36), (10144, 17977)),
        (step_bounded_largest(72), (36352, 36352)),
        (sna_largest(SequenceSpec.odds(), 50), (2379, 3658)),  # no level without a member
    ],
)
def test_the_largest_part_walks_keep_their_shape(desc, shape, monkeypatch):
    real, opened = _walkers._walk_runs, [0]

    def counted(level):  # a level counts once, when the walk starts reading it
        opened[0] += 1
        for run, below, stop in level:
            yield run, None if below is None else counted(below), stop

    monkeypatch.setattr(_walkers, "_walk_runs", lambda n, top, empty=False: real(n, counted(top), empty))
    members = sum(1 for _ in enumerate_family(desc))
    assert (opened[0], members) == shape


# ---------------------------------------------------------------------------
# sum sides


def ref_partition_sum_side(f: WeightSpec, qtrunc: int) -> BivariateSeries:
    """Every partition of every size <= qtrunc weighed part by part."""
    coeffs = {}
    for n in range(qtrunc + 1):
        total = Fraction(0)
        for parts in ref_by_size(n, 0):
            w = Fraction(1)
            for part in parts:
                w *= f.value(part)
            total += w
        coeffs[(0, n)] = total
    return BivariateSeries(0, qtrunc, coeffs)


def sum_outcome(fn):
    try:
        return fn()
    except SeqcongError as e:
        return type(e).__name__, str(e)


# zero, negative and non-integral entries, tables shorter than qtrunc, indicators
@settings(deadline=None)
@given(f=weights, qtrunc=st.integers(-1, 16))
def test_partition_sum_side_matches_per_member_weights(f, qtrunc):
    assert sum_outcome(lambda: partition_sum_side(f, qtrunc)) == sum_outcome(
        lambda: ref_partition_sum_side(f, qtrunc)
    )


def test_short_weight_table_message():
    f = WeightSpec.from_values([1, Fraction(1, 2), 0])
    with pytest.raises(SeqcongError, match="^weight table of extent 3 has no value at 4$"):
        partition_sum_side(f, 9)


def ref_zeta(part_set, s, depth, dps):
    """The sum of N^(-s), one power per partition, sizes 0 to depth."""
    with mpmath.workdps(dps):
        s_mp = mpmath.mpf(s.numerator) / s.denominator
        total, terms = mpmath.mpf(0), 0
        for n in range(depth + 1):
            for parts in ref_parts_in(part_set, n):
                total += mpmath.power(prod(parts), -s_mp)
                terms += 1
    return total, terms


# sizes kept so the reference computes a few thousand powers at most
zeta_inputs = st.sets(st.integers(2, 9), min_size=1, max_size=3).flatmap(
    lambda t: st.tuples(st.just(t), st.integers(0, 200 if len(t) < 3 else 80))
)


@settings(deadline=None, max_examples=40)
@given(inputs=zeta_inputs, s=st.sampled_from([2, 3, Fraction(3, 2), Fraction(7, 3)]))
def test_partition_zeta_matches_per_member_powers(inputs, s):
    part_set, depth = inputs
    got = partition_zeta(part_set, s, depth, dps=50)
    total, terms = ref_zeta(part_set, Fraction(s), depth, 50)
    assert got.terms == terms
    with mpmath.workdps(50):  # the mpf on the left: Fraction - mpf is a TypeError
        assert abs(total - got.sum_side) < mpmath.mpf(10) ** -40
