"""Reference answers for the benchmark's jobs, computed without importing
``seqcong``.

Every function here takes a different route from the package: counts come
from recurrences and dense dynamic programming instead of enumeration, and
the maps come from their closed formulas.  The benchmark compares each
job's stdout with these answers, so a fast but wrong change fails it.
"""

from __future__ import annotations

from fractions import Fraction


def partition_counts(n: int) -> list[int]:
    """p(0..n) from Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p


def distinct_counts(n: int) -> list[int]:
    """Partitions of 0..n into distinct parts, by a 0/1 knapsack."""
    q = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(n, part - 1, -1):
            q[m] += q[m - part]
    return q


def restricted_counts(values, n: int) -> list[int]:
    """Partitions of 0..n with every part in `values`, by coin change."""
    c = [1] + [0] * n
    for v in sorted(set(values)):
        for m in range(v, n + 1):
            c[m] += c[m - v]
    return c


def product_series(weights, n: int) -> list:
    """Coefficients of q^0..q^n in the product over k of 1/(1 - w_k q^k),
    where weights[k - 1] is w_k, by the dense in-place recurrence."""
    a = [1] + [0] * n
    for k in range(1, n + 1):
        w = weights[k - 1]
        if w:
            for m in range(k, n + 1):
                a[m] += w * a[m - k]
    return a


def two_variable_series(pairs, xtrunc: int, qtrunc: int) -> dict[tuple[int, int], int]:
    """Nonzero coefficients of the product over (a, b) in `pairs` of
    1/(1 - x^a q^(a*b)), truncated at x^xtrunc q^qtrunc."""
    grid = [[0] * (qtrunc + 1) for _ in range(xtrunc + 1)]
    grid[0][0] = 1
    for a, b in pairs:
        e = a * b
        if a > xtrunc or e > qtrunc:
            continue
        for x in range(a, xtrunc + 1):
            row, prev = grid[x], grid[x - a]
            for q in range(e, qtrunc + 1):
                row[q] += prev[q - e]
    return {
        (x, q): grid[x][q]
        for x in range(xtrunc + 1)
        for q in range(qtrunc + 1)
        if grid[x][q]
    }


def zeta_sides(part_set, s: int, depth: int) -> tuple[Fraction, Fraction, int]:
    """Exact sum of N^-s over partitions of size <= depth with parts in the
    set (N the product of the parts), the closed product, and the number
    of partitions summed."""
    coeff = [Fraction(1)] + [Fraction(0)] * depth
    for t in sorted(set(part_set)):
        w = Fraction(1, t**s)
        for m in range(t, depth + 1):
            coeff[m] += w * coeff[m - t]
    product = Fraction(1)
    for t in set(part_set):
        product /= 1 - Fraction(1, t**s)
    terms = sum(restricted_counts(part_set, depth))
    return sum(coeff), product, terms


def fixed_point(value: Fraction, places: int = 12) -> str:
    """Round half to even at `places` decimals, as the CLI prints reals."""
    scaled = round(value * 10**places)
    sign = "-" if scaled < 0 else ""
    ip, fp = divmod(abs(scaled), 10**places)
    return f"{sign}{ip}.{fp:0{places}d}"


def partitions(n: int, largest: int | None = None):
    """All partitions of n as tuples, in decreasing lexicographic order."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def pi(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The i-th part becomes i * lambda_i plus the sum of the later parts."""
    out, tail = [], 0
    for i in range(len(parts), 0, -1):
        out.append(i * parts[i - 1] + tail)
        tail += parts[i - 1]
    return tuple(reversed(out))


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column k of the diagram holds one cell per part >= k."""
    return tuple(sum(1 for v in parts if v >= k) for k in range(1, (parts[0] if parts else 0) + 1))


def seqcong_violation(parts: tuple[int, ...]) -> int | None:
    """First index i with lambda_i - lambda_(i+1) not divisible by i
    (zero-extended), or None for a sequentially congruent partition."""
    ext = parts + (0,)
    for i in range(1, len(parts) + 1):
        if (ext[i - 1] - ext[i]) % i:
            return i
    return None


def freqcong_violation(parts: tuple[int, ...]) -> int | None:
    """Smallest part whose multiplicity it does not divide, or None."""
    for v in sorted(set(parts)):
        if parts.count(v) % v:
            return v
    return None


def pba_first_difference(a_terms: tuple[int, ...], bound: int) -> int | None:
    """First n <= bound at which the length-n members of P_B(A) and of
    P_B(reversed A) differ as sets, with B the naturals and A a distinct
    table.  A member is a multiplicity vector m with a_i | m_i summing to n."""

    def vectors(terms, n):
        out = set()

        def rec(i, left, chosen):
            if i == len(terms):
                if left == 0:
                    out.add(tuple(chosen))
                return
            for m in range(0, left + 1, terms[i]):
                rec(i + 1, left - m, chosen + [m])

        rec(0, n, [])
        return out

    rev = tuple(reversed(a_terms))
    for n in range(bound + 1):
        if vectors(a_terms, n) != vectors(rev, n):
            return n
    return None


def self_test() -> list[str]:
    """Check the oracles against values observed at the seed and against
    each other; returns one line per mismatch."""
    p = partition_counts(50)
    q = distinct_counts(100)
    checks = {
        "p(36)": (p[36], 17977),
        "p(40)": (p[40], 37338),
        "p(48)": (p[48], 147273),
        "p(50)": (p[50], 204226),
        "distinct-part count of 60": (q[60], 10880),
        "distinct-part count of 100": (q[100], 444793),
        "odd-part counts = distinct-part counts": (restricted_counts(range(1, 101, 2), 100), q),
        "p(n) by coin change": (restricted_counts(range(1, 51), 50), p),
        "p(n) by the product series": (product_series([1] * 50, 50), p),
        "partitions of 20 listed": (sum(1 for _ in partitions(20)), p[20]),
        "pi [3,1]": (pi((3, 1)), (4, 2)),
        "conjugate [3,1]": (conjugate((3, 1)), (2, 1, 1)),
        "seqcong [20,17,15,9,5]": (seqcong_violation((20, 17, 15, 9, 5)), None),
        "seqcong [21,18,16,10,6]": (seqcong_violation((21, 18, 16, 10, 6)), 5),
        "freqcong [2,2,1]": (freqcong_violation((2, 2, 1)), None),
        "freqcong [3,3]": (freqcong_violation((3, 3)), 3),
    }
    return [f"{name}: got {got}, want {want}" for name, (got, want) in checks.items() if got != want]


if __name__ == "__main__":
    import sys

    failures = self_test()
    for line in failures:
        print(line)
    print("oracle self-test " + ("FAILED" if failures else "passed"))
    sys.exit(1 if failures else 0)
