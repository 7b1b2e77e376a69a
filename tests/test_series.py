import random
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcong import _counters, _walkers, sums
from seqcong import (
    BivariateSeries,
    BoundsMismatch,
    DivergentParameters,
    ExtentExceeded,
    InternalContradiction,
    InvalidExponent,
    NonDistinctA,
    ResourceBound,
    SeqcongError,
    SequenceSpec,
    WeightSpec,
    compare,
    distinct_of_size,
    distinct_product_side,
    count,
    euler_limit_side,
    partition_count,
    partition_sum_side,
    partition_zeta,
    partitions_of,
    pba_sum_side,
    product_side,
    restricted_count,
    seqcong_sum_side,
    step_bounded_sum_side,
    two_var_product_side,
)

NAT = SequenceSpec.naturals()
ONE = WeightSpec.one()


class TestBivariateSeries:
    def test_zero_coefficients_dropped(self):
        s = BivariateSeries(2, 2, {(0, 0): Fraction(0), (1, 1): Fraction(2)})
        assert s.items() == [((1, 1), Fraction(2))]

    def test_out_of_range_terms_discarded(self):
        s = BivariateSeries(1, 1, {(5, 0): Fraction(1), (0, 1): Fraction(3)})
        assert s.items() == [((0, 1), Fraction(3))]

    def test_negative_exponent_rejected(self):
        with pytest.raises(InvalidExponent):
            BivariateSeries(2, 2, {(-1, 0): Fraction(1)})

    def test_coefficient_bounds(self):
        s = BivariateSeries(2, 3, {(0, 0): 1})
        assert s.coefficient(0, 0) == 1
        assert s.coefficient(2, 3) == 0
        with pytest.raises(BoundsMismatch):
            s.coefficient(3, 0)

    def test_arithmetic_needs_matching_bounds(self):
        a = BivariateSeries(2, 2, {(0, 0): 1})
        b = BivariateSeries(2, 3, {(0, 0): 1})
        with pytest.raises(BoundsMismatch):
            a * b


def geometric_factor(c, a, b, xtrunc, qtrunc):
    """Truncation of 1 / (1 - c x^a q^b), a + b >= 1: the sum of
    c^k x^{ka} q^{kb}, of which the constructor keeps the terms in range."""
    terms = range(max(xtrunc, qtrunc) + 1)
    return BivariateSeries(xtrunc, qtrunc, {(k * a, k * b): Fraction(c) ** k for k in terms})


class TestGeometricFactor:
    # __mul__ on the factors that the product sides below are folded from
    def test_plain_geometric(self):
        s = geometric_factor(1, 0, 1, 0, 3)
        assert [c for (_, c) in s.items()] == [Fraction(1)] * 4
        assert [c for (_, c) in (s * s).items()] == [1, 2, 3, 4]  # 1 / (1 - q)^2

    def test_two_variable_terms(self):
        s = geometric_factor(1, 2, 4, 4, 8)
        assert dict(s.items()) == {
            (0, 0): Fraction(1),
            (2, 4): Fraction(1),
            (4, 8): Fraction(1),
        }
        assert dict((s * s).items()) == {(0, 0): 1, (2, 4): 2, (4, 8): 3}

    def test_zero_coefficient(self):
        s = geometric_factor(0, 1, 1, 5, 5)
        assert s == BivariateSeries(5, 5, {(0, 0): 1})
        other = geometric_factor(Fraction(-2, 3), 1, 2, 5, 5)
        assert s * other == other == other * s

    def test_multiplied_by_reciprocal_gives_one(self):
        rng = random.Random(7)
        for _ in range(10):
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            a, b = rng.randint(0, 3), rng.randint(1, 4)
            g = geometric_factor(c, a, b, 9, 12)
            linear = BivariateSeries(
                9, 12, {(0, 0): Fraction(1), (a, b): -c}
            )
            assert g * linear == BivariateSeries(9, 12, {(0, 0): 1})


class TestWeightSpec:
    def test_table_extent(self):
        f = WeightSpec.from_values([2, 3])
        assert f.value(2) == 3
        with pytest.raises(ExtentExceeded):
            f.value(3)

    def test_indicator(self):
        f = WeightSpec.indicator([2, 5])
        assert [f.value(n) for n in (1, 2, 5)] == [0, 1, 1]

    def test_random_table_is_seeded(self):
        assert WeightSpec.random_table(42, 8) == WeightSpec.random_table(42, 8)
        assert WeightSpec.random_table(42, 8) != WeightSpec.random_table(43, 8)

    def test_random_table_values(self):
        # the values a seed drew when the whole table was built up front
        f = WeightSpec.random_table(42, 6)
        assert [f.value(n) for n in range(6, 0, -1)] == [
            -4, 2, -3, Fraction(-1, 2), 0, -3
        ]
        assert [WeightSpec.random_table(7, 3).value(n) for n in (1, 2, 3)] == [
            Fraction(1, 2), 2, -3
        ]
        with pytest.raises(ExtentExceeded):
            f.value(7)

    def test_random_table_draws_nothing_until_read(self):
        start = time.perf_counter()
        f = WeightSpec.random_table(1, 10**9)
        with pytest.raises(ExtentExceeded):
            f.value(10**9 + 1)
        assert time.perf_counter() - start < 0.1


WEIGHTED_Q3 = WeightSpec.from_values([2, 3, 1])


class TestProductAndSumSides:
    def test_unweighted_counts(self):
        s = product_side(ONE, 5)
        assert [s.coefficient(0, n) for n in range(6)] == [1, 1, 2, 3, 5, 7]

    def test_weighted_cube_coefficient(self):
        # partitions of 3 weighted: (3) -> 1, (2,1) -> 6, (1,1,1) -> 8
        assert product_side(WEIGHTED_Q3, 3).coefficient(0, 3) == 15
        assert partition_sum_side(WEIGHTED_Q3, 3).coefficient(0, 3) == 15
        assert seqcong_sum_side(WEIGHTED_Q3, 3).coefficient(0, 3) == 15

    def test_trivial_truncation(self):
        for side in (product_side, partition_sum_side, seqcong_sum_side):
            assert side(ONE, 0) == BivariateSeries(0, 0, {(0, 0): 1})

    def test_sum_side_counts(self):
        s = partition_sum_side(ONE, 8)
        assert [s.coefficient(0, n) for n in range(9)] == [
            partition_count(n) for n in range(9)
        ]

    def test_congruent_sum_counts(self):
        s = seqcong_sum_side(ONE, 8)
        assert [s.coefficient(0, n) for n in range(9)] == [
            partition_count(n) for n in range(9)
        ]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_weighted_identities(self, seed):
        f = WeightSpec.random_table(seed, 12)
        lhs = product_side(f, 12)
        assert compare(lhs, partition_sum_side(f, 12)).equal
        assert compare(lhs, seqcong_sum_side(f, 12)).equal

    def test_sum_sides_agree_directly(self):
        # same summands in a different order
        f = WeightSpec.random_table(99, 10)
        assert partition_sum_side(f, 10) == seqcong_sum_side(f, 10)

    def test_table_extent_propagates(self):
        with pytest.raises(ExtentExceeded):
            product_side(WEIGHTED_Q3, 5)

    def test_indicator_weights_count_restricted_partitions(self):
        s = product_side(WeightSpec.indicator([2, 3]), 8)
        assert [s.coefficient(0, n) for n in range(9)] == [
            restricted_count(SequenceSpec.table([2, 3]), n) for n in range(9)
        ]


class TestTwoVariableSides:
    def test_length_marking_case(self):
        # a_i = 1, b_i = i marks the length in the x exponent
        s = two_var_product_side(SequenceSpec.ones(), NAT, 6, 10)
        for n in range(11):
            for k in range(7):
                expected = sum(1 for p in partitions_of(n) if p.length == k)
                assert s.coefficient(k, n) == expected

    def test_square_case_matches_enumeration(self):
        a = NAT
        assert compare(
            two_var_product_side(a, a, 6, 20), pba_sum_side(a, a, 6, 20)
        ).equal

    def test_custom_tables(self):
        A = SequenceSpec.table([2, 3])
        B = SequenceSpec.table([5, 7])
        s = pba_sum_side(A, B, 12, 45)
        assert s.coefficient(6, 30) == 1  # six fives
        assert s.coefficient(6, 42) == 1  # six sevens
        assert compare(two_var_product_side(A, B, 12, 45), s).equal

    def test_empty_table_is_constant_one(self):
        empty = SequenceSpec.table([])
        assert two_var_product_side(empty, empty, 4, 4) == BivariateSeries(4, 4, {(0, 0): 1})

    def test_trivial_bounds(self):
        assert pba_sum_side(NAT, NAT, 0, 0) == BivariateSeries(0, 0, {(0, 0): 1})


class TestEulerSide:
    def test_naturals(self):
        s = euler_limit_side(NAT, 5)
        assert [s.coefficient(n, 0) for n in range(6)] == [1, 1, 2, 3, 5, 7]

    def test_pair_table(self):
        s = euler_limit_side(SequenceSpec.table([2, 3]), 6)
        assert [s.coefficient(n, 0) for n in range(7)] == [1, 0, 1, 1, 1, 1, 2]

    def test_matches_enumeration(self):
        for spec in (NAT, SequenceSpec.odds(), SequenceSpec.table([2, 3])):
            s = euler_limit_side(spec, 10)
            for n in range(11):
                assert s.coefficient(n, 0) == restricted_count(spec, n)

    def test_trivial(self):
        assert euler_limit_side(NAT, 0) == BivariateSeries(0, 0, {(0, 0): 1})

    def test_repeating_terms_rejected(self):
        with pytest.raises(NonDistinctA):
            euler_limit_side(SequenceSpec.ones(), 4)
        with pytest.raises(NonDistinctA):
            euler_limit_side(SequenceSpec.table([2, 2, 3]), 4)


class TestCompare:
    def test_witness_on_perturbation(self):
        f = WeightSpec.one()
        lhs = product_side(f, 6)
        bump = {(0, 4): lhs.coefficient(0, 4) + Fraction(1, 3)}
        bumped = BivariateSeries(0, 6, {**dict(lhs.items()), **bump})
        outcome = compare(lhs, bumped)
        assert not outcome.equal
        assert (outcome.x_exponent, outcome.q_exponent) == (0, 4)
        assert outcome.rhs_coefficient - outcome.lhs_coefficient == Fraction(1, 3)

    def test_bounds_mismatch(self):
        with pytest.raises(BoundsMismatch):
            compare(BivariateSeries(0, 5, {(0, 0): 1}), BivariateSeries(0, 6, {(0, 0): 1}))


def test_distinct_parts_product_matches_step_bounded_sum():
    lhs = distinct_product_side(14)
    rhs = step_bounded_sum_side(14)
    assert compare(lhs, rhs).equal
    assert [lhs.coefficient(0, n) for n in range(15)] == [
        count(distinct_of_size(n)) for n in range(15)
    ]


class TestPartitionZeta:
    def test_single_even_part(self):
        # sum over (2^k) of 4^{-k}: geometric with closed value 4/3
        result = partition_zeta([2], 2, 20)
        assert abs(result.product_side - float(Fraction(4, 3))) < 1e-12
        truncated = sum(Fraction(1, 4**k) for k in range(11))
        assert abs(result.sum_side - float(truncated)) < 1e-12
        assert result.terms == 11

    def test_two_parts(self):
        result = partition_zeta([2, 3], 2, 40)
        assert abs(result.product_side - 1.5) < 1e-12
        assert abs(result.sum_side - result.product_side) < 1e-3

    @pytest.mark.parametrize("bad", [([2], 1), ([1, 2], 2), ([2], Fraction(1, 2)), ([], 2)])
    def test_divergent_parameters(self, bad):
        part_set, s = bad
        with pytest.raises(DivergentParameters):
            partition_zeta(part_set, s, 10)

    def test_fractional_exponent(self):
        result = partition_zeta([2], Fraction(3, 2), 10)
        assert result.sum_side < result.product_side

    @pytest.mark.parametrize("dps", [0, -3])
    def test_precision_below_one_digit_rejected(self, dps):
        with pytest.raises(DivergentParameters, match="dps must be >= 1"):
            partition_zeta([2, 3], 2, 10, dps=dps)

    def test_cost_does_not_grow_with_the_digits_of_s(self):
        # at 30 digits (103 bits) every term but the empty partition's 1 rounds
        # away once s passes 135: both sides are exactly 1 from there on
        start = time.perf_counter()
        for s in (136, Fraction(10**1000, 3), 10**1000):
            result = partition_zeta([2, 3], s, 40)
            assert (result.sum_side, result.product_side, result.terms) == (1, 1, 154)
        assert time.perf_counter() - start < 0.5
        below = partition_zeta([2, 3], 60, 40)  # 2^-60 still shows at 30 digits
        assert below.sum_side > 1 and below.product_side > 1

    def test_precision_above_the_cap_refused_at_once(self):
        assert partition_zeta([2, 3], 2, 40, dps=sums.MAX_DPS).terms == 154
        start = time.perf_counter()
        for dps in (sums.MAX_DPS + 1, 10**7, 10**100):
            with pytest.raises(ResourceBound, match="cap of 10000 digits"):
                partition_zeta([2, 3], 2, 40, dps=dps)
        assert time.perf_counter() - start < 0.1

    def test_threads_at_mixed_precision_keep_their_digits(self):
        # each call works in a decimal context of its own thread, so a call at
        # 120 digits running beside one at 30 changes none of its digits
        cases = [([2, 3, 5, 7], Fraction(3, 2), 60, dps) for dps in (30, 120, 30, 120)]
        expected = [partition_zeta(*case) for case in cases]
        start = threading.Barrier(len(cases), timeout=60)
        got = [[] for _ in cases]

        def calls(case, results):
            start.wait()
            results.extend(partition_zeta(*case) for _ in range(4))

        threads = [threading.Thread(target=calls, args=pair) for pair in zip(cases, got)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so that the calls interleave
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[value] * 4 for value in expected]


# ---------------------------------------------------------------------------
# every product side against the sparse fold of its factors by __mul__


def outcome(fn):
    """The value of fn(), or the SeqcongError subclass it raised."""
    try:
        return fn()
    except SeqcongError as e:
        return type(e)


def sparse_fold(factors, xtrunc, qtrunc):
    acc = BivariateSeries(xtrunc, qtrunc, {(0, 0): 1})
    for factor in factors:
        acc = acc * factor
    return acc


entries = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=5)
)
# shared (2, 4, 6, 12), coprime (5, 7, 11), prime powers (8, 9, 25, 27) and
# 40-digit (10**39 + 7, 3**84) denominators; integral weights among them
DENOMINATORS = [1, 2, 4, 6, 12, 5, 7, 11, 8, 9, 25, 27, 10**39 + 7, 3**84]
rationals = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(-(10**40), 10**40)),
    st.sampled_from(DENOMINATORS),
)
weights = st.one_of(
    st.just(WeightSpec.one()),
    st.lists(entries, max_size=16).map(WeightSpec.from_values),
    st.lists(rationals, max_size=16).map(WeightSpec.from_values),
    st.lists(st.integers(1, 16), max_size=5).map(WeightSpec.indicator),
)
RULES = [NAT, SequenceSpec.odds(), SequenceSpec.ones(), SequenceSpec.constant(2)]
sequences = st.one_of(
    st.sampled_from(RULES), st.lists(st.integers(1, 6), max_size=5).map(SequenceSpec.table)
)


@settings(deadline=None)
@given(f=weights, qtrunc=st.integers(-1, 14))
def test_product_side_matches_sparse_fold(f, qtrunc):
    expected = outcome(lambda: sparse_fold(
        (geometric_factor(f.value(n), 0, n, 0, qtrunc) for n in range(1, qtrunc + 1)),
        0, qtrunc,
    ))
    if f.kind == "table" and len(f.table) < qtrunc:
        assert expected is ExtentExceeded
    assert outcome(lambda: product_side(f, qtrunc)) == expected


@settings(deadline=None)
@given(f=weights, qtrunc=st.integers(-1, 14))
def test_partition_sum_side_matches_product_side(f, qtrunc):
    # the walk on the kernel's scales S_q against the kernel itself, which
    # the test above holds to the sparse fold
    expected = outcome(lambda: product_side(f, qtrunc))
    assert outcome(lambda: partition_sum_side(f, qtrunc)) == expected


@settings(deadline=None)
@given(qtrunc=st.integers(0, 40))
def test_distinct_product_side_is_a_knapsack(qtrunc):
    ways = [1] + [0] * qtrunc  # 0/1 knapsack over the parts 1..qtrunc
    for k in range(1, qtrunc + 1):
        for v in range(qtrunc, k - 1, -1):
            ways[v] += ways[v - k]
    s = distinct_product_side(qtrunc)
    assert [s.coefficient(0, n) for n in range(qtrunc + 1)] == ways
    linear = (
        BivariateSeries(0, qtrunc, {(0, 0): 1, (0, n): 1}) for n in range(1, qtrunc + 1)
    )
    assert s == sparse_fold(linear, 0, qtrunc)


@settings(deadline=None)
@given(
    a_seq=st.one_of(
        st.sampled_from([NAT, SequenceSpec.odds()]),
        st.lists(st.integers(1, 24), unique=True, max_size=6).map(SequenceSpec.table),
    ),
    xtrunc=st.integers(-1, 24),
)
def test_euler_side_matches_sparse_fold(a_seq, xtrunc):
    values = [a for a in range(1, xtrunc + 1) if a_seq.index_of(a) is not None]
    factors = (
        BivariateSeries(xtrunc, 0, {(k * a, 0): 1 for k in range(xtrunc // a + 1)})
        for a in values
    )
    expected = outcome(lambda: sparse_fold(factors, xtrunc, 0))
    assert outcome(lambda: euler_limit_side(a_seq, xtrunc)) == expected


@given(terms=st.lists(st.integers(1, 6), min_size=2, max_size=6), xtrunc=st.integers(0, 10))
def test_euler_side_rejects_repeated_terms(terms, xtrunc):
    a_seq = SequenceSpec.table(terms)
    if len(set(terms)) == len(terms):
        assert euler_limit_side(a_seq, xtrunc).coefficient(0, 0) == 1
    else:
        with pytest.raises(NonDistinctA):
            euler_limit_side(a_seq, xtrunc)


@settings(deadline=None)
@given(a_seq=sequences, b_seq=sequences, xtrunc=st.integers(-1, 6), qtrunc=st.integers(-1, 24))
def test_two_variable_side_matches_sparse_fold(a_seq, b_seq, xtrunc, qtrunc):
    def fold():
        extents = [e for e in (a_seq.extent, b_seq.extent) if e is not None]
        last = min(extents) if extents else max(qtrunc, 0)
        positions = [(a_seq.at(i), b_seq.at(i)) for i in range(1, last + 1)]
        acc = sparse_fold(
            (
                geometric_factor(1, a, a * b, xtrunc, qtrunc)
                for a, b in positions
                if a * b <= qtrunc and a <= xtrunc
            ),
            xtrunc, qtrunc,
        )
        if not extents and a_seq.at(last + 1) * b_seq.at(last + 1) <= qtrunc:
            raise ResourceBound("rule products never decrease: infinitely many factors")
        return acc

    expected = outcome(fold)
    assert outcome(lambda: two_var_product_side(a_seq, b_seq, xtrunc, qtrunc)) == expected


@pytest.mark.parametrize(
    "side",
    [
        lambda: product_side(ONE, 10**8),
        lambda: product_side(WeightSpec.random_table(1, 10**8), 10**8),
        lambda: distinct_product_side(10**8),
        lambda: euler_limit_side(NAT, 10**9),
        lambda: euler_limit_side(SequenceSpec.table([1, 2]), 10**7),
        lambda: two_var_product_side(NAT, NAT, 10**5, 10**8),
        lambda: two_var_product_side(SequenceSpec.ones(), NAT, 10, 10**6),
    ],
)
def test_oversized_product_refused_before_allocation(side):
    start = time.perf_counter()
    with pytest.raises(ResourceBound):
        side()
    assert time.perf_counter() - start < 0.5


class _EnumerationStarted(Exception):
    pass


@pytest.mark.parametrize(
    "side, enumerator, fits",
    [
        # the last sizes whose members total at most 10**7: sum of p(n) for
        # n <= 62, coin change over {2, 3} to 10951, over the squares to 290;
        # the partition sum and zeta sides walk all sizes in one _size_totals
        (lambda q: partition_sum_side(ONE, q), "_size_totals", 62),
        (lambda d: partition_zeta([2, 3], 2, d), "_size_totals", 10951),
        (lambda q: pba_sum_side(NAT, NAT, q, q), "_gen_pba_by_size", 290),
    ],
)
def test_enumerative_sides_total_their_members_first(monkeypatch, side, enumerator, fits):
    def started(*args, **kwargs):
        raise _EnumerationStarted

    # pba_sum_side imports its walker from _walkers when it is called
    monkeypatch.setattr(_walkers if enumerator == "_gen_pba_by_size" else sums, enumerator, started)
    with pytest.raises(ResourceBound, match="would enumerate"):
        side(fits + 1)
    with pytest.raises(_EnumerationStarted):
        side(fits)


def test_product_and_seqcong_sides_share_the_cell_cap():
    # q * (q + 1) cells for both: q = 3161 fits in 10**7, q = 3162 does not
    for side in (product_side, seqcong_sum_side):
        with pytest.raises(ResourceBound):
            side(ONE, 3162)
    assert product_side(ONE, 3161) == seqcong_sum_side(ONE, 3161)


def test_coprime_denominators_stay_exact():
    # weights 1/p over the first 150 primes: no denominator is shared, so the
    # reduced coefficients grow to thousands of bits
    primes = [p for p in range(2, 900) if all(p % d for d in range(2, int(p**0.5) + 1))][:150]
    f = WeightSpec.from_values(Fraction(1, p) for p in primes)
    start = time.perf_counter()
    lhs, rhs = product_side(f, 150), seqcong_sum_side(f, 150)
    assert time.perf_counter() - start < 5
    assert compare(lhs, rhs).equal and lhs == rhs
    assert max(c.denominator.bit_length() for _, c in lhs.items()) > 1000


# ---------------------------------------------------------------------------
# the int-scaled kernel against the sparse fold of Fraction factors

PRIMES = [p for p in range(2, 2000) if all(p % d for d in range(2, int(p**0.5) + 1))]
factor_lists = st.lists(
    st.one_of(
        st.tuples(rationals, st.integers(0, 3), st.integers(1, 9)),
        st.tuples(st.integers(-3, 3), st.integers(1, 3), st.just(0)),  # no q, integral
    ),
    max_size=8,
)


def cells(grid):
    return [c for row in grid for c in row]


def assert_reduced(grid):
    # an integral coefficient is an int, any other a Fraction
    assert all(type(c) is int or c.denominator > 1 for c in cells(grid))


@settings(deadline=None)
@given(factors=factor_lists, xtrunc=st.integers(0, 4), qtrunc=st.integers(0, 14))
def test_scaled_kernel_matches_sparse_fold(factors, xtrunc, qtrunc):
    grid = _counters._dense_product("kernel", len(factors), factors, xtrunc, qtrunc)
    fold = sparse_fold(
        (geometric_factor(c, a, b, xtrunc, qtrunc) for c, a, b in factors), xtrunc, qtrunc
    )
    assert BivariateSeries._of_rows(grid) == fold
    assert_reduced(grid)


@settings(deadline=None)
@given(factors=factor_lists, xtrunc=st.integers(0, 4), qtrunc=st.integers(0, 14))
def test_scaled_linear_kernel_matches_sparse_fold(factors, xtrunc, qtrunc):
    grid = _counters._dense_product("kernel", len(factors), factors, xtrunc, qtrunc, linear=True)
    fold = sparse_fold(
        (BivariateSeries(xtrunc, qtrunc, {(0, 0): 1, (a, b): c}) for c, a, b in factors),
        xtrunc, qtrunc,
    )
    assert BivariateSeries._of_rows(grid) == fold
    assert_reduced(grid)


@settings(deadline=None)
@given(
    factors=st.lists(
        st.tuples(
            st.one_of(st.integers(-5, 5), st.integers(-5, 5).map(lambda k: Fraction(4 * k, 2))),
            st.integers(0, 3), st.integers(0, 9),
        ).filter(lambda f: f[1] or f[2]),
        max_size=8,
    ),
    xtrunc=st.integers(0, 4),
    qtrunc=st.integers(0, 14),
    linear=st.booleans(),
)
def test_integral_weights_give_int_cells(factors, xtrunc, qtrunc, linear):
    grid = _counters._dense_product("kernel", len(factors), factors, xtrunc, qtrunc, linear=linear)
    assert all(type(c) is int for c in cells(grid))


def test_rational_weight_needs_a_q_exponent():
    with pytest.raises(InternalContradiction):
        _counters._dense_product("kernel", 1, [(Fraction(1, 2), 1, 0)], 3, 3)


@pytest.mark.parametrize(
    "values",
    [
        [Fraction(1, 2**b) for b in range(1, 301)],
        [Fraction(1, b + 1) for b in range(1, 301)],
        [Fraction(1, p) for p in PRIMES[:300]],
    ],
    ids=["1/2^b", "1/(b+1)", "1/p"],
)
def test_rational_product_side_scales_per_coefficient(values):
    # one global denominator D would carry D^q at q^q: about 180k bits at
    # q^150 over 150 primes, where the reduced coefficients stay under 3,500
    f = WeightSpec.from_values(values)
    start = time.perf_counter()
    lhs = product_side(f, 300)
    assert time.perf_counter() - start < 5
    assert lhs == seqcong_sum_side(f, 300)


def test_partition_sum_side_scales_per_size():
    # one common denominator L for all 45 weights, carried as L^n by a node
    # of size n, takes about 10 s here
    f = WeightSpec.from_values(Fraction(1, p) for p in PRIMES[:45])
    start = time.perf_counter()
    lhs = partition_sum_side(f, 45)
    assert time.perf_counter() - start < 2
    assert lhs == product_side(f, 45)


# ---------------------------------------------------------------------------
# the dense grid against a dict of its nonzero coefficients


def reference(coeffs, xtrunc, qtrunc):
    """The nonzero in-range coefficients as Fractions, keyed by (x, q)."""
    return {
        (a, b): Fraction(c) for (a, b), c in coeffs.items() if a <= xtrunc and b <= qtrunc and c
    }


def by_q_then_x(terms):
    return sorted(terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))


exponents = st.tuples(st.integers(0, 5), st.integers(0, 7))
mappings = st.dictionaries(exponents, entries, max_size=12)


@settings(deadline=None)
@given(
    bounds=st.tuples(st.integers(0, 4), st.integers(0, 6)),
    first=mappings,
    changes=st.dictionaries(exponents, entries, max_size=2),
    other=st.one_of(st.none(), mappings),
)
def test_dense_series_matches_a_dict_reference(bounds, first, changes, other):
    xtrunc, qtrunc = bounds
    second = {**first, **changes} if other is None else other
    s, t = BivariateSeries(xtrunc, qtrunc, first), BivariateSeries(xtrunc, qtrunc, second)
    ref_s, ref_t = reference(first, *bounds), reference(second, *bounds)

    assert s.items() == by_q_then_x(ref_s)
    assert all(type(c) is Fraction for _, c in s.items())
    for x in range(xtrunc + 1):
        for q in range(qtrunc + 1):
            c = s.coefficient(x, q)
            assert type(c) is Fraction and c == ref_s.get((x, q), 0)

    assert (s == t) == (ref_s == ref_t)
    if s == t:
        assert hash(s) == hash(t)
    # a grid of Fractions equals the same grid of ints, and hashes alike
    fractions = BivariateSeries._of_rows([[Fraction(c) for c in row] for row in s._rows])
    assert fractions == s and hash(fractions) == hash(s)
    assert repr(s) == f"BivariateSeries(xtrunc={xtrunc}, qtrunc={qtrunc}, {len(ref_s)} terms)"

    differ = [k for k, _ in by_q_then_x({k: 0 for k in ref_s.keys() | ref_t.keys()})
              if ref_s.get(k, 0) != ref_t.get(k, 0)]
    found = compare(s, t)
    if differ:
        x, q = differ[0]
        assert (found.equal, found.x_exponent, found.q_exponent) == (False, x, q)
        assert (found.lhs_coefficient, found.rhs_coefficient) == (
            ref_s.get((x, q), 0), ref_t.get((x, q), 0)
        )
    else:
        assert found.equal


@pytest.mark.parametrize(
    "xtrunc, qtrunc, error",
    [
        (0, 10**7, ResourceBound),  # one cell over the cap
        (3162, 3161, ResourceBound),
        (10**9, 10**9, ResourceBound),
        (-1, 5, InvalidExponent),
        (5, -1, InvalidExponent),
        (-1, 10**9, InvalidExponent),
    ],
)
def test_series_constructor_refuses_before_allocating(xtrunc, qtrunc, error):
    start = time.perf_counter()
    with pytest.raises(error):
        BivariateSeries(xtrunc, qtrunc, {(0, 0): 1})
    assert time.perf_counter() - start < 0.1
