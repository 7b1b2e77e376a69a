"""The run-length representation against per-part references.

Each reference below is the straightforward per-part definition (a loop
over every index, the Young diagram for conjugation); the package computes
the same things from (value, multiplicity) runs.  Partitions are drawn as
frequency maps, so long runs occur, and the empty partition is included.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice, takewhile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from seqcong import (
    InsufficientMultiplicity,
    NotSequentiallyCongruent,
    Partition,
    ResourceBound,
    SeqcongError,
    SequenceSpec,
    ViolationReport,
    all_of_size,
    enumerate_family,
    has_distinct_parts,
    is_frequency_congruent,
    is_member_pba,
    is_member_sna,
    is_self_conjugate,
    is_sequentially_congruent,
    is_step_bounded_seqcong,
    orbit,
    partitions_of,
    parts_in,
    pba_length,
    pi,
    pi_inverse,
    seqcong_largest,
    sigma,
    sigma_inverse,
    step_bounded_largest,
)
from seqcong import cli
from seqcong._clifamily import parse_family
from seqcong._clipartition import _partition_texts
from seqcong.errors import DEFAULT_ITEM_CAP, ExtentExceeded

SRC = str(Path(__file__).resolve().parents[1] / "src")
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))

# ---------------------------------------------------------------------------
# per-part references


def ref_at(t, k):
    return t[k - 1] if k <= len(t) else 0


def ref_conjugate(t):
    """Diagram transpose: column k has one cell per part >= k."""
    cols = [0] * (t[0] if t else 0)
    for v in t:
        for k in range(v):
            cols[k] += 1
    return tuple(cols)


def ref_pi(t):
    out, tail = [], 0
    for i in range(len(t), 0, -1):
        out.append(i * t[i - 1] + tail)
        tail += t[i - 1]
    return tuple(reversed(out))


def ref_seqcong(t):
    r = len(t)
    for i in range(1, r + 1):
        a, b = ref_at(t, i), ref_at(t, i + 1)
        if (a - b) % i:
            if i == r:
                return ViolationReport(False, i, f"smallest part {a} is not congruent to 0 modulo {r}")
            return ViolationReport(
                False, i, f"lambda_{i}={a} is not congruent to lambda_{i + 1}={b} modulo {i}"
            )
    return ViolationReport(True, None, "all sequential congruences hold")


def ref_pi_inverse(t):
    r = len(t)
    lam, tail = [0] * r, 0
    for i in range(r, 0, -1):
        num = t[i - 1] - tail
        assert num > 0 and num % i == 0
        lam[i - 1] = num // i
        tail += lam[i - 1]
    return tuple(lam)


def ref_sigma(t):
    freq = {}
    for i in range(1, len(t) + 1):
        d = ref_at(t, i) - ref_at(t, i + 1)
        assert d % i == 0
        if d:
            freq[i] = d // i
    return tuple(v for v in sorted(freq, reverse=True) for _ in range(freq[v]))


def ref_freqs(t):
    freq = {}
    for v in t:
        freq[v] = freq.get(v, 0) + 1
    return freq


def ref_freqcong(t):
    freq = ref_freqs(t)
    for part in sorted(freq):
        if freq[part] % part:
            return ViolationReport(
                False, part, f"part {part} has multiplicity {freq[part]}, not divisible by {part}"
            )
    return ViolationReport(True, None, "every part divides its multiplicity")


def ref_pba(t, a_seq, b_seq):
    freq = ref_freqs(t)
    for part in sorted(freq):
        pos = b_seq.index_of(part)
        if pos is None:
            return ViolationReport(False, part, f"part {part} is not a term of B ({b_seq.describe()})")
        ext = a_seq.extent
        if ext is not None and pos > ext:
            return ViolationReport(False, part, f"part {part} is at B position {pos}, past the {ext} terms of A")
        a = a_seq.at(pos)
        if freq[part] % a:
            return ViolationReport(
                False,
                part,
                f"multiplicity {freq[part]} of part {part} is not divisible by "
                f"{a} (A term at position {pos})",
            )
    return ViolationReport(True, None, "all multiplicities divisible as required")


def ref_sna(t, a_seq):
    r = len(t)
    if a_seq.extent is not None and r > a_seq.extent:
        raise ExtentExceeded("too long")
    for i in range(1, r + 1):
        a, b, m = ref_at(t, i), ref_at(t, i + 1), a_seq.at(i)
        if (a - b) % m:
            return ViolationReport(
                False, i, f"lambda_{i}={a} is not congruent to lambda_{i + 1}={b} modulo {m}"
            )
    return ViolationReport(True, None, "all congruences modulo A hold")


def ref_step(t):
    for i in range(1, len(t) + 1):
        step = ref_at(t, i) - ref_at(t, i + 1)
        if step not in (0, i):
            return ViolationReport(False, i, f"step {step} at index {i} is neither 0 nor {i}")
    return ViolationReport(True, None, "all steps are 0 or the index")


def ref_delete(t, value, count):
    vals = list(t)
    for _ in range(count):
        vals.remove(value)
    return tuple(vals)


# ---------------------------------------------------------------------------
# strategies

multiplicities = st.one_of(st.integers(1, 4), st.integers(1, 300))
freq_maps = st.dictionaries(st.integers(1, 40), multiplicities, max_size=6)


@st.composite
def partitions(draw):
    """A partition drawn as a frequency map, returned with its parts tuple."""
    freq = draw(freq_maps)
    t = tuple(v for v in sorted(freq, reverse=True) for _ in range(freq[v]))
    return Partition.from_frequencies(freq), t


@st.composite
def seqcong_members(draw):
    """pi of a drawn partition, or a drawn partition that usually is not a member."""
    lam, t = draw(partitions())
    if draw(st.booleans()):
        image = ref_pi(t)
        return Partition(image), image
    return lam, t


SEQUENCES = [
    SequenceSpec.naturals(),
    SequenceSpec.odds(),
    SequenceSpec.ones(),
    SequenceSpec.constant(3),
    SequenceSpec.table([2, 3, 1, 4, 6, 5, 9, 8]),
    SequenceSpec.table([1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]),
]
sequences = st.sampled_from(SEQUENCES)


def outcome(fn, *args):
    """The value, or the type of the SeqcongError raised."""
    try:
        return fn(*args)
    except (ExtentExceeded, NotSequentiallyCongruent) as e:
        return type(e)


# ---------------------------------------------------------------------------
# value semantics


@given(partitions())
def test_views_match_the_tuple(pair):
    lam, t = pair
    built = Partition(t)
    assert lam.parts == t and tuple(lam) == t and list(built) == list(t)
    assert lam == built and hash(lam) == hash(built)
    assert repr(lam) == repr(built) == f"Partition({t!r})"
    assert (lam.size, lam.length, lam.largest) == (sum(t), len(t), t[0] if t else 0)
    assert len(lam) == len(t)
    assert lam.frequencies() == ref_freqs(t)
    assert Partition.from_parts(list(reversed(t)) + [0]) == lam


@given(partitions(), st.integers(1, 1200))
def test_part_at_matches_the_tuple(pair, k):
    lam, t = pair
    for i in {k, 1, max(len(t), 1), len(t) + 1}:  # the last part and just past it
        assert lam.part_at(i) == ref_at(t, i)


@given(partitions(), st.data())
def test_delete_parts_matches_the_tuple(pair, data):
    lam, t = pair
    # mostly a present value and a count up to one past its multiplicity
    value = data.draw(st.sampled_from(sorted(set(t))) if t and data.draw(st.booleans()) else st.integers(1, 40))
    count = data.draw(st.integers(1, t.count(value) + 1))
    if t.count(value) < count:
        with pytest.raises(InsufficientMultiplicity):
            lam.delete_parts(value, count)
        return
    reduced = lam.delete_parts(value, count)
    assert reduced.parts == ref_delete(t, value, count)
    assert reduced == Partition(ref_delete(t, value, count))


def test_delete_parts_refusal_names_the_runs():
    lam = Partition.from_frequencies({1: 10**6, 3: 2})
    with pytest.raises(InsufficientMultiplicity, match=r"^partition 3\^2 1\^1000000 has only 0 copies of 2"):
        lam.delete_parts(2)


def test_runs_of_known_partitions():
    assert Partition((3, 3, 1)) != Partition((3, 1, 1))
    assert Partition((3, 3, 1)).runs == ((3, 2), (1, 1))
    assert Partition(()).runs == ()


# ---------------------------------------------------------------------------
# maps


@given(partitions())
def test_pi_and_conjugate_match_the_references(pair):
    lam, t = pair
    assert pi(lam).parts == ref_pi(t)
    assert lam.conjugate().parts == ref_conjugate(t)
    assert sigma_inverse(lam).parts == ref_pi(ref_conjugate(t))


@given(seqcong_members())
def test_inverse_maps_match_the_references(pair):
    phi, t = pair
    expected = ref_seqcong(t)
    assert is_sequentially_congruent(phi) == expected
    if expected.ok:
        assert pi_inverse(phi).parts == ref_pi_inverse(t)
        assert sigma(phi).parts == ref_sigma(t)
    else:
        for fn in (pi_inverse, sigma):
            with pytest.raises(NotSequentiallyCongruent) as err:
                fn(phi)
            assert err.value.report == expected


@given(partitions())
def test_orbit_states_match_the_references(pair):
    lam, t = pair
    conj = ref_conjugate(t)
    states = [t, ref_pi(t), t] if conj == t else [t, ref_pi(t), conj, ref_pi(conj), t]
    assert [p.parts for p in orbit(lam).states] == states


# ---------------------------------------------------------------------------
# predicates


@given(partitions())
def test_plain_predicates_match_the_references(pair):
    lam, t = pair
    assert is_sequentially_congruent(lam) == ref_seqcong(t)
    assert is_frequency_congruent(lam) == ref_freqcong(t)
    assert is_step_bounded_seqcong(lam) == ref_step(t)
    assert has_distinct_parts(lam) is (len(set(t)) == len(t))
    assert is_self_conjugate(lam) is (ref_conjugate(t) == t)


@given(seqcong_members(), sequences, sequences)
def test_sequence_predicates_match_the_references(pair, a_seq, b_seq):
    lam, t = pair
    assert outcome(is_member_sna, lam, a_seq) == outcome(ref_sna, t, a_seq)
    assert outcome(is_member_pba, lam, a_seq, b_seq) == outcome(ref_pba, t, a_seq, b_seq)


@st.composite
def pba_members(draw):
    """A member of the (A, B) family: the B-term at each drawn position,
    taken a multiple of the A-term at that position times."""
    a_seq, b_seq = draw(sequences), draw(sequences)
    assume(b_seq.is_distinct_through(8))
    chosen = draw(st.dictionaries(st.integers(1, 8), st.integers(1, 30), max_size=4))
    freq = {b_seq.at(pos): a_seq.at(pos) * k for pos, k in chosen.items()}
    t = tuple(v for v in sorted(freq, reverse=True) for _ in range(freq[v]))
    return Partition.from_frequencies(freq), t, a_seq, b_seq


@given(pba_members())
def test_pba_members_match_the_reference(drawn):
    lam, t, a_seq, b_seq = drawn
    report = is_member_pba(lam, a_seq, b_seq)
    assert report.ok and report == ref_pba(t, a_seq, b_seq)


def test_family_members_match_the_references_exhaustively():
    for n in range(17):
        for lam in partitions_of(n):
            t = lam.parts
            assert is_self_conjugate(lam) is (ref_conjugate(t) == t)
            assert lam.conjugate().parts == ref_conjugate(t)
        for family in (seqcong_largest(n), step_bounded_largest(n)):
            for phi in enumerate_family(family):
                t = phi.parts
                assert is_sequentially_congruent(phi) == ref_seqcong(t)
                assert is_step_bounded_seqcong(phi) == ref_step(t)
                assert sigma(phi).parts == ref_sigma(t)
                assert pi_inverse(phi).parts == ref_pi_inverse(t)


# ---------------------------------------------------------------------------
# the CLI writer


def dumped(obj):
    return json.dumps(obj, separators=(",", ":"))


def written(lam):
    """The writer's text of one partition: a str, or its pieces."""
    return next(_partition_texts((lam,)))


@given(partitions())
def test_writer_matches_json_dumps(pair):
    lam, t = pair
    assert written(lam) == dumped(list(t))  # short: one str


CHUNK = cli._CHUNK_CHARS


@st.composite
def near_a_chunk(draw, top=10**40):
    """A partition whose JSON text is a few parts below, at or above
    _CHUNK_CHARS characters: a run of a drawn value up to `top`, sized to
    the drawn length, beside a few short runs."""
    freq = draw(st.dictionaries(st.integers(1, top), st.integers(1, 40), max_size=4))
    v = draw(st.one_of(st.integers(1, 9), st.integers(1, top)).filter(lambda v: v not in freq))
    unit = len(str(v)) + 1  # the part and its comma
    rest = 1 + sum(m * (len(str(u)) + 1) for u, m in freq.items())
    target = CHUNK + draw(st.integers(-3 * unit, 3 * unit))
    freq[v] = max(1, (target - rest) // unit)
    return Partition.from_frequencies(freq)


def assert_pieces(lam):
    """The writer's pieces join to json.dumps; a text past a chunk comes
    in pieces, none longer than a sixteenth of a chunk or a part."""
    text, expected = written(lam), dumped(list(lam.parts))
    assert "".join(text) == expected
    if len(expected) > CHUNK:
        assert text.__class__ is not str
        assert max(map(len, written(lam))) <= max(CHUNK // 16, len(str(lam.largest)) + 1)


@settings(max_examples=60, deadline=None)
@given(near_a_chunk())
def test_pieces_join_to_json_dumps_around_a_chunk(lam):
    assert_pieces(lam)


@pytest.mark.parametrize("length", [CHUNK - 2, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2, 3 * CHUNK + 7])
def test_pieces_at_exact_lengths(length):
    # "[" and a 1 per 2 characters, closed by "]": odd lengths; a 10 makes them even
    tens = 1 - length % 2
    lam = Partition.from_frequencies({10: 1, 1: (length - 4) // 2} if tens else {1: (length - 1) // 2})
    assert len(dumped(list(lam.parts))) == length
    assert_pieces(lam)
    conjugate = dumped(list(lam.conjugate().parts))
    assert cli_stdout("map", "conjugate", conjugate) == (0, dumped(list(lam.parts)) + "\n")


@settings(max_examples=15, deadline=None)
@given(near_a_chunk(top=50))
def test_orbit_output_around_a_chunk(lam):
    trace = orbit(lam)
    payload = {
        "states": [list(p.parts) for p in trace.states],
        "cycle_length": trace.cycle_length,
        "closed": trace.closed,
    }
    assert cli_stdout("orbit", dumped(list(lam.parts))) == (0, dumped(payload) + "\n")


@settings(max_examples=15, deadline=None)
@given(st.integers(CHUNK // 2 - 3, CHUNK // 2 + 3), st.integers(1, 3))
def test_enum_output_around_a_chunk(n, limit):
    # the first member of parts:T=1,2 is 1^n, whose text has 2n + 1 characters
    members = [list(p.parts) for p in islice(enumerate_family(parts_in([1, 2], n)), limit)]
    argv = ("enum", f"parts:T=1,2;n={n}", "--limit", str(limit))
    assert cli_stdout(*argv) == (0, "".join(dumped(m) + "\n" for m in members))
    assert cli_stdout(*argv, "--json") == (0, dumped(members) + "\n")


@pytest.mark.parametrize("argv, part", [
    (("map", "pi", "1^50000"), 50000),
    (("enum", "parts:T=1;n=100000"), 1),
    (("enum", "parts:T=1;n=100000", "--json"), 1),
    (("orbit", "3^30000"), 90000),
])
def test_a_long_line_is_written_a_chunk_at_a_time(monkeypatch, argv, part):
    # no write holds more than a chunk and a piece, a sixteenth of a chunk
    # or a part, however long the line
    code, expected = cli_stdout(*argv)
    sizes = []

    class Sink(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(list(argv)) == code == 0
    assert sink.getvalue() == expected and len(expected) > 2 * CHUNK
    assert max(sizes) <= CHUNK + max(CHUNK // 16, len(str(part)) + 1)


SERIES_200 = ("series", "expand", "two-variable", "--A", "ones", "--B", "naturals", "--xtrunc", "200",
              "--qtrunc", "200")


def test_output_memory_does_not_grow_with_the_text(tmp_path):
    # peak RSS of huge outputs and of a long check stream, each against a
    # tiny map; children are started by a small launcher, since Linux
    # counts the forking process's resident size in a child's ru_maxrss
    stream = tmp_path / "stream.txt"
    with open(stream, "w") as out:
        subprocess.run([sys.executable, "-m", "seqcong.cli", "enum", "seqcong-lg:36"], env=_ENV,
                       stdout=out, check=True, timeout=60)
    launcher = (
        "import os, sys\n"
        "exe, stdin, *argv = sys.argv[1:]\n"
        "peak = []\n"
        "for _ in range(3):\n"
        "    fds = [os.open(stdin, os.O_RDONLY), os.open(os.devnull, os.O_WRONLY)]\n"
        "    dups = [(os.POSIX_SPAWN_DUP2, fd, i) for i, fd in enumerate(fds)]\n"
        "    pid = os.posix_spawn(exe, [exe, '-m', 'seqcong.cli', *argv], os.environ, file_actions=dups)\n"
        "    _, status, usage = os.wait4(pid, 0)\n"
        "    peak.append(usage.ru_maxrss if os.waitstatus_to_exitcode(status) == 0 else -1)\n"
        "    list(map(os.close, fds))\n"
        "print(min(peak))\n"
    )

    def peak_kb(*argv, stdin=os.devnull):
        proc = subprocess.run([sys.executable, "-S", "-c", launcher, sys.executable, stdin, *argv],
                              env=_ENV, capture_output=True, text=True, check=True, timeout=120)
        return int(proc.stdout)

    floor = peak_kb("map", "pi", "[3,1]")
    assert floor > 0
    for argv, stdin in [
        (("map", "pi", "1^500000"), os.devnull),
        (("map", "conjugate", "[1000000]"), os.devnull),
        (("check", "seqcong"), str(stream)),
        # 20,101 coefficients, written from the grid without a list of them
        (SERIES_200, os.devnull),
        ((*SERIES_200, "--json"), os.devnull),
    ]:
        assert 0 < peak_kb(*argv, stdin=stdin) <= floor + 2048, argv


def cli_stdout(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


@settings(max_examples=30)
@given(partitions())
def test_map_and_orbit_output_match_json_dumps(pair):
    lam, t = pair
    trace = orbit(lam)
    payload = {
        "states": [list(p.parts) for p in trace.states],
        "cycle_length": trace.cycle_length,
        "closed": trace.closed,
    }
    assert cli_stdout("orbit", dumped(list(t))) == (0, dumped(payload) + "\n")
    assert cli_stdout("map", "pi", dumped(list(t))) == (0, dumped(list(ref_pi(t))) + "\n")


@pytest.mark.parametrize("family, desc", [
    ("all:9", all_of_size(9)),
    ("seqcong-lg:9", seqcong_largest(9)),
    ("pba:A=naturals;B=naturals;n=8", pba_length(SequenceSpec.naturals(), SequenceSpec.naturals(), 8)),
])
def test_enum_output_matches_json_dumps(family, desc):
    members = [list(p.parts) for p in enumerate_family(desc)]
    assert cli_stdout("enum", family) == (0, "".join(dumped(m) + "\n" for m in members))
    assert cli_stdout("enum", family, "--json") == (0, dumped(members) + "\n")


# ---------------------------------------------------------------------------
# the writer over a stream, which joins each text from the kept texts of its runs


@st.composite
def shared_streams(draw):
    """Runs that share leading runs as a walk's members do: each keeps a
    drawn number of the runs of the one before it and adds runs of smaller
    values.  Long runs make texts past a chunk, beside and after short
    ones; a largest part may be past the digit limit."""
    stack, members = [], []
    for _ in range(draw(st.integers(1, 14))):
        del stack[draw(st.integers(0, len(stack))):]
        below = stack[-1][0] if stack else 10 ** draw(st.sampled_from([1, 2, 30, 40, 5000])) + 1
        for _ in range(draw(st.integers(0, 4))):
            if below <= 1:
                break
            if below > 10**40:  # only the largest part goes past 40 digits
                v = below - 1
            else:
                v = draw(st.one_of(st.integers(1, min(below - 1, 9)), st.integers(1, below - 1)))
            unit = v.bit_length() // 3 + 2  # about the characters of a part and its comma
            m = draw(st.one_of(st.integers(1, 4), st.integers(CHUNK // unit // 2, 2 * CHUNK // unit)))
            stack.append((v, m))
            below = v
        members.append(tuple(stack))
    return members  # runs, which show shorter than their partitions


def listed(members):
    """The writer's texts of `members`, each joined, with whether it came
    as one str, up to a refusal; and the refusal's text, or None."""
    out = []
    try:
        for text in _partition_texts(members):
            out.append((text.__class__ is str, "".join(text)))
    except ResourceBound as e:
        return out, str(e)
    return out, None


@settings(max_examples=150, deadline=None)
@given(shared_streams())
def test_listing_texts_match_each_member_alone(runs):
    members = [Partition._from_runs(r) for r in runs]
    texts, refusal = listed(members)
    # json.dumps of each member, up to the first whose largest part is past the digit limit
    limit = sys.get_int_max_str_digits()
    printable = list(takewhile(lambda p: p.largest < 10**limit, members))
    assert [text for _, text in texts] == [dumped(list(p.parts)) for p in printable]
    if len(printable) < len(members):
        assert refusal is not None and refusal.endswith(f"past the limit of {limit} digits")
    else:
        assert refusal is None
    assert not any(whole for whole, text in texts if len(text) > CHUNK)  # no joined text passes a chunk


def test_listing_texts_past_the_kept_runs():
    # more distinct runs than are kept, then the same runs again
    members = [Partition._from_runs(((v, 1 + v % 3), (1, 2))) for v in range(6000, 1, -1)] * 2
    assert list(_partition_texts(members)) == [dumped(list(p.parts)) for p in members]


families_listed = st.one_of(
    st.integers(0, 14).map("all:{}".format),
    st.integers(0, 30).map("distinct:{}".format),
    st.builds("parts:T={};n={}".format, st.lists(st.integers(1, 9), min_size=1, max_size=4, unique=True)
              .map(lambda t: ",".join(map(str, t))), st.integers(0, 30)),
    st.integers(0, 16).map("seqcong-lg:{}".format),
    st.integers(0, 30).map("step-lg:{}".format),
    st.builds("pba:A={};B={};n={}".format, *[st.sampled_from(["naturals", "odds", "ones", "2,3", "1,2,3"])] * 2,
              st.integers(0, 10)),
    st.builds("sna-lg:A={};n={}".format, st.sampled_from(["naturals", "odds", "2,3,5,7,11,13"]),
              st.integers(0, 20)),
    # members past a chunk after a short one: [40000,1,1,1], then 1^40003;
    # [40000,40000,1], then [40000,1,...,1] and 1^80001
    st.sampled_from(["parts:T=1,40000;n=40003", "parts:T=1,40000;n=80001"]),
)


def enum_run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["enum", *argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(family=families_listed, options=st.lists(st.sampled_from(["--json", "--limit", "--max-items"]),
                                               unique=True), cap=st.integers(0, 40))
def test_enum_output_matches_the_member_by_member_writer(family, options, cap):
    argv = [family]
    for option in options:
        argv += [option] if option == "--json" else [option, str(cap)]
    code, out, err = enum_run(*argv)
    members = []  # json.dumps of each member, up to a refusal (a table A too short, exit 2)
    try:
        members.extend(dumped(list(p.parts)) for p in enumerate_family(parse_family(family)))
    except SeqcongError:
        pass
    shown = members[:cap] if "--limit" in options or code == 3 else members
    if "--json" in options:
        assert out == "[" + ",".join(shown) + ("]\n" if code == 0 else "")
    else:
        assert out == "".join(text + "\n" for text in shown)
    assert bool(err) is (code != 0) and code in (0, 2, 3)


def test_writer_refuses_more_parts_than_the_cap():
    cap = DEFAULT_ITEM_CAP
    assert written(Partition.from_frequencies({2: 3})) == "[2,2,2]"
    with pytest.raises(ResourceBound, match="more than the cap"):
        written(Partition.from_frequencies({1: cap + 1}))
    # the cap is tested before the digit limit, and both before any text
    huge = 10 ** sys.get_int_max_str_digits()
    with pytest.raises(ResourceBound, match="more than the cap"):
        written(Partition.from_frequencies({huge: cap + 1}))
    texts, refusal = listed([Partition.from_parts([3, 1]), Partition.from_parts([huge])])
    assert texts == [(True, "[3,1]")]
    assert refusal.endswith(f"past the limit of {sys.get_int_max_str_digits()} digits")


def test_ferrers_refuses_more_cells_than_the_cap():
    cap = DEFAULT_ITEM_CAP
    assert Partition.from_frequencies({2: 2}).ferrers() == "..\n.."
    with pytest.raises(ResourceBound):
        Partition((cap + 1,)).ferrers()
    with pytest.raises(ResourceBound):
        Partition.from_frequencies({1: cap + 1}).ferrers()
