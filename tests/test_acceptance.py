"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  All equalities are
exact integer/rational comparisons except the final evaluation, whose
tolerances are stated inline.
"""

import functools
import time
from fractions import Fraction

from seqcong import (
    SequenceSpec,
    WeightSpec,
    check_ideal_closure,
    check_quasi_ideal,
    compare,
    count,
    count_invariance_suite,
    distinct_of_size,
    distinct_product_side,
    enumerate_family,
    has_distinct_parts,
    is_frequency_congruent,
    is_self_conjugate,
    orbit,
    partition_count,
    partition_sum_side,
    partition_zeta,
    partitions_of,
    pba_length,
    pba_sum_side,
    pi,
    pi_inverse,
    product_side,
    restricted_count,
    seqcong_largest,
    seqcong_sum_side,
    sigma,
    sigma_pi,
    step_bounded_largest,
    step_bounded_sum_side,
    two_var_product_side,
)
from seqcong.cli import main

NAT = SequenceSpec.naturals()
ODD = SequenceSpec.odds()
A23 = SequenceSpec.table([2, 3])
B57 = SequenceSpec.table([5, 7])


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} FAIL {description}")
                raise
            print(f"criterion {number:02d} PASS {description}")

        return wrapper

    return deco


@criterion(1, "congruent-family counts match partition counts up to 30")
def test_criterion_01_counts():
    started = time.monotonic()
    for n in range(31):
        assert count(seqcong_largest(n)) == partition_count(n)
    assert time.monotonic() - started < 60


@criterion(2, "dual map is a bijection onto the directly generated family, n <= 22")
def test_criterion_02_bijection():
    for n in range(23):
        plain = list(partitions_of(n))
        images = [pi(lam) for lam in plain]
        assert len(set(images)) == len(plain)  # injective
        assert set(images) == set(enumerate_family(seqcong_largest(n)))
        for lam, image in zip(plain, images):
            assert pi_inverse(image) == lam


@criterion(3, "worked-example CLI outputs are byte-exact")
def test_criterion_03_cli_bytes(capsys):
    assert main(["check", "seqcong", "[20,17,15,9,5]"]) == 0
    assert capsys.readouterr().out == (
        '{"ok":true,"index":null,"detail":"all sequential congruences hold"}\n'
    )
    assert main(["check", "seqcong", "[21,18,16,10,6]"]) == 1
    assert capsys.readouterr().out == (
        '{"ok":false,"index":5,"detail":"smallest part 6 is not congruent '
        'to 0 modulo 5"}\n'
    )


@criterion(4, "all five orbits at n = 4 reproduced with their cycle lengths")
def test_criterion_04_orbits_at_four():
    expected = {
        (4,): ([(4,), (4,), (1, 1, 1, 1), (4, 4, 4, 4), (4,)], 2),
        (3, 1): ([(3, 1), (4, 2), (2, 1, 1), (4, 3, 3), (3, 1)], 2),
        (2, 2): ([(2, 2), (4, 4), (2, 2)], 1),
        (2, 1, 1): ([(2, 1, 1), (4, 3, 3), (3, 1), (4, 2), (2, 1, 1)], 2),
        (1, 1, 1, 1): ([(1, 1, 1, 1), (4, 4, 4, 4), (4,), (4,), (1, 1, 1, 1)], 2),
    }
    seen = set()
    for lam in partitions_of(4):
        trace = orbit(lam, side="P")
        states, cycle = expected[lam.parts]
        assert [p.parts for p in trace.states] == states
        assert trace.cycle_length == cycle and trace.closed
        seen.add(lam.parts)
    assert len(seen) == 5


@criterion(5, "composed map equals conjugation by both paths, sizes <= 20")
def test_criterion_05_composition_is_conjugation():
    for n in range(21):
        for lam in partitions_of(n):
            transpose = lam.conjugate()
            assert sigma_pi(lam) == transpose


@criterion(6, "round trips are involutions with the right fixed points, <= 20")
def test_criterion_06_involutions():
    for n in range(21):
        for lam in partitions_of(n):
            once = sigma_pi(lam)
            assert sigma_pi(once) == lam
            assert (once == lam) == is_self_conjugate(lam)
        for phi in enumerate_family(seqcong_largest(n)):
            once = pi(sigma(phi))
            assert pi(sigma(once)) == phi
            assert (once == phi) == is_self_conjugate(sigma(phi))


@criterion(7, "conjugation pairs the two families; length counts match, <= 25")
def test_criterion_07_conjugate_family():
    for n in range(19):
        congruent = set(enumerate_family(seqcong_largest(n)))
        freq_side = set(enumerate_family(pba_length(NAT, NAT, n)))
        assert {phi.conjugate() for phi in congruent} == freq_side
        assert {mu.conjugate() for mu in freq_side} == congruent
    for n in range(26):
        assert count(pba_length(NAT, NAT, n)) == partition_count(n)


@criterion(8, "weighted product equals both sums exactly to q^20")
def test_criterion_08_weighted_identities():
    weights = [WeightSpec.one()] + [
        WeightSpec.random_table(seed, 20) for seed in (11, 22, 33, 44, 55)
    ]
    for f in weights:
        lhs = product_side(f, 20)
        psum = partition_sum_side(f, 20)
        ssum = seqcong_sum_side(f, 20)
        assert compare(lhs, psum).equal
        assert compare(lhs, ssum).equal
        assert psum == ssum
    hand = WeightSpec.from_values([2, 3] + [1] * 18)
    built = product_side(hand, 20)
    assert built.coefficient(0, 3) == 15
    assert partition_sum_side(hand, 20).coefficient(0, 3) == 15
    assert seqcong_sum_side(hand, 20).coefficient(0, 3) == 15


@criterion(9, "two-variable product equals the family sum; counts match")
def test_criterion_09_two_variable():
    configs = [
        (SequenceSpec.ones(), NAT, 12, 20),
        (NAT, NAT, 10, 40),
        (A23, B57, 12, 50),
    ]
    for a_seq, b_seq, m, n in configs:
        lhs = two_var_product_side(a_seq, b_seq, m, n)
        rhs = pba_sum_side(a_seq, b_seq, m, n)
        assert compare(lhs, rhs).equal
    # the count identity needs distinct scaling terms, so the length-marking
    # configuration (all scaling terms 1) is replaced by a third distinct one
    for a_seq, b_seq in [(NAT, NAT), (A23, B57), (ODD, NAT)]:
        for n in range(16):
            assert count(pba_length(a_seq, b_seq, n)) == restricted_count(a_seq, n)


@criterion(10, "step-bounded members correspond to distinct-part partitions")
def test_criterion_10_distinct_parts():
    for n in range(26):
        assert count(step_bounded_largest(n)) == count(distinct_of_size(n))
    assert compare(distinct_product_side(20), step_bounded_sum_side(20)).equal
    for n in range(21):
        members = list(enumerate_family(step_bounded_largest(n)))
        images = [sigma(phi) for phi in members]
        assert all(has_distinct_parts(g) for g in images)
        assert len(set(images)) == len(members)
        assert set(images) == set(enumerate_family(distinct_of_size(n)))


@criterion(11, "deletion closure, quasi-ideal property, and count invariance")
def test_criterion_11_ideals():
    assert check_ideal_closure(has_distinct_parts, 12).ok
    for allowed in ({2, 3}, {1, 4, 9}):
        report = check_ideal_closure(
            lambda p, s=allowed: all(v in s for v in p.parts), 12
        )
        assert report.ok
    freq_report = check_ideal_closure(lambda p: is_frequency_congruent(p).ok, 12)
    assert not freq_report.ok
    assert freq_report.index is not None and freq_report.detail
    for a_seq, b_seq in [(NAT, NAT), (A23, B57), (ODD, NAT)]:
        assert check_quasi_ideal(a_seq, b_seq, 12).ok
    invariance = count_invariance_suite(
        A23, B57, 12, b_prime=SequenceSpec.table([1, 2])
    )
    assert invariance.ok
    assert invariance.sets_differ_at is not None
    assert list(invariance.counts) == [restricted_count(A23, n) for n in range(13)]


@criterion(12, "zeta values agree with closed forms at stated depths")
def test_criterion_12_zeta():
    four_thirds = float(Fraction(4, 3))
    single = partition_zeta([2], 2, 60)
    assert abs(single.sum_side - four_thirds) < 1e-9
    assert abs(single.product_side - four_thirds) < 1e-9
    pair = partition_zeta([2, 3], 2, 40)
    assert abs(pair.product_side - 1.5) < 1e-12
    assert abs(pair.sum_side - pair.product_side) < 1e-3
