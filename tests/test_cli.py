import json
import subprocess
from fractions import Fraction

import pytest

from seqcong import cli
from seqcong._clipartition import parse_partition
from seqcong._cliseries import _expand_side, _format_fixed
from seqcong.cli import main
from seqcong.errors import ParseError
from seqcong.series import partition_zeta


def _expanded(argv):
    """The lines and the JSON document that `series expand` writes, built
    from the public items() of the side and from json.dumps, and the items."""
    args = cli._parse(argv)
    s = _expand_side(args.side, args)
    items = s.items()
    line = "q^{1}: {2}" if s.xtrunc == 0 else "x^{0}: {2}" if s.qtrunc == 0 else "x^{0} q^{1}: {2}"
    lines = "".join(line.format(x, q, c) + "\n" for (x, q), c in items)
    coefficients = [[x, q, str(c)] for (x, q), c in items]
    doc = {"xtrunc": s.xtrunc, "qtrunc": s.qtrunc, "coefficients": coefficients}
    return lines, json.dumps(doc, separators=(",", ":")) + "\n", items


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsePartition:
    def test_json_array(self):
        assert parse_partition("[5,3,3]").parts == (5, 3, 3)

    def test_frequency_form(self):
        assert parse_partition("1^3 2 3^2 4 5").parts == (5, 4, 3, 3, 2, 1, 1, 1)

    def test_repeated_tokens_accumulate(self):
        assert parse_partition("2 2 2^2").parts == (2, 2, 2, 2)

    @pytest.mark.parametrize(
        "bad", ["[3,1,2,-1]", "", "[1,2,", "1^0", "x", "[1.5]", "1^"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_partition(bad)


class TestCheck:
    def test_accepts_worked_example_bytes(self, capsys):
        code, out, _ = run(capsys, "check", "seqcong", "[20,17,15,9,5]")
        assert code == 0
        assert out == '{"ok":true,"index":null,"detail":"all sequential congruences hold"}\n'

    def test_rejects_worked_example_bytes(self, capsys):
        code, out, _ = run(capsys, "check", "seqcong", "[21,18,16,10,6]")
        assert code == 1
        assert out == (
            '{"ok":false,"index":5,"detail":"smallest part 6 is not congruent '
            'to 0 modulo 5"}\n'
        )

    def test_frequency_input(self, capsys):
        code, out, _ = run(capsys, "check", "freqcong", "1 2^2 3^3")
        assert code == 0 and '"ok":true' in out

    def test_pba_family(self, capsys):
        code, out, _ = run(capsys, "check", "pba:A=2,3;B=5,7", "[7,7,7,5]")
        assert code == 1 and '"index":5' in out

    def test_pba_part_past_the_a_table_fails(self, capsys):
        code, out, err = run(capsys, "check", "pba:A=1,2,3,5,7,11;B=naturals", "[7]")
        assert (code, err) == (1, "")
        assert out == (
            '{"ok":false,"index":7,"detail":"part 7 is at B position 7, past the 6 terms of A"}\n'
        )

    def test_sna_family(self, capsys):
        code, _, _ = run(capsys, "check", "sna:A=2,3,1", "[9,5,2]")
        assert code == 0

    def test_stdin_lines(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, "check", "distinct",
            stdin="[3,1]\n[4,3,3]\n", monkeypatch=monkeypatch,
        )
        assert code == 1
        lines = out.splitlines()
        assert '"ok":true' in lines[0] and '"ok":false' in lines[1]

    def test_repeated_reports_print_once_a_line(self, capsys, monkeypatch):
        # [3,1] and [5,1] fail with equal reports, [4,2] and [6,4] pass with equal ones
        code, out, _ = run(
            capsys, "check", "seqcong",
            stdin="[4,2]\n[3,1]\n[6,4]\n[5,1]\n[4,2]\n", monkeypatch=monkeypatch,
        )
        passed = '{"ok":true,"index":null,"detail":"all sequential congruences hold"}'
        failed = '{"ok":false,"index":2,"detail":"smallest part 1 is not congruent to 0 modulo 2"}'
        assert (code, out) == (1, "\n".join([passed, failed, passed, failed, passed, ""]))

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "check", "seqcong", "[3,1,2,-1]")
        assert code == 2 and "error" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "check", "mystery", "[3,1]")
        assert code == 2


class TestMap:
    def test_pi_bytes(self, capsys):
        code, out, _ = run(capsys, "map", "pi", "[3,1]")
        assert code == 0 and out == "[4,2]\n"

    def test_pi_inverse_rejects_with_witness(self, capsys):
        code, out, _ = run(capsys, "map", "pi-inv", "[21,18,16,10,6]")
        assert code == 1 and '"index":5' in out

    def test_sigma(self, capsys):
        code, out, _ = run(capsys, "map", "sigma", "[5,3,3]")
        assert code == 0 and out == "[3,1,1]\n"

    def test_conjugate(self, capsys):
        code, out, _ = run(capsys, "map", "conjugate", "[8,5,4,2,1]")
        assert code == 0 and out == "[5,4,3,3,2,1,1,1]\n"

    def test_scale_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "map", "scale", "[3,3,2]", "--A", "2,3", "--B", "5,7"
        )
        assert code == 0 and out == "[7,7,7,7,7,7,5,5]\n"
        code, out, _ = run(
            capsys, "map", "scale-inv", "[7,7,7,7,7,7,5,5]", "--A", "2,3", "--B", "5,7"
        )
        assert code == 0 and out == "[3,3,2]\n"

    def test_scale_rejects_repeated_b(self, capsys):
        code, out, err = run(capsys, "map", "scale", "[3,2]", "--A", "2,3", "--B", "5,5")
        assert code == 2 and out == "" and "B (5,5)" in err

    def test_scale_needs_sequences(self, capsys):
        code, _, err = run(capsys, "map", "scale", "[3,3,2]")
        assert code == 2

    def test_scale_part_outside_a(self, capsys):
        code, out, _ = run(
            capsys, "map", "scale", "[4]", "--A", "odds", "--B", "naturals"
        )
        assert code == 1 and '"ok":false' in out


class TestOrbit:
    def test_plain_side_bytes(self, capsys):
        code, out, _ = run(capsys, "orbit", "[3,1]")
        assert code == 0
        assert out == (
            '{"states":[[3,1],[4,2],[2,1,1],[4,3,3],[3,1]],'
            '"cycle_length":2,"closed":true}\n'
        )

    def test_congruent_side(self, capsys):
        code, out, _ = run(capsys, "orbit", "[4,3,3]", "--side", "S")
        assert code == 0 and '"cycle_length":2' in out

    def test_congruent_side_requires_membership(self, capsys):
        code, out, _ = run(capsys, "orbit", "[3,3]", "--side", "S")
        assert code == 1 and '"ok":false' in out


class TestEnum:
    def test_lines(self, capsys):
        code, out, _ = run(capsys, "enum", "pba:A=2,3;B=5,7;n=6")
        assert code == 0
        assert out == "[7,7,7,7,7,7]\n[5,5,5,5,5,5]\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "enum", "all:4", "--json")
        assert code == 0
        assert out == "[[4],[3,1],[2,2],[2,1,1],[1,1,1,1]]\n"

    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enum", "seqcong-lg:4", "--count-only")
        assert code == 0 and out == "5\n"

    def test_limit(self, capsys):
        code, out, _ = run(capsys, "enum", "all:6", "--limit", "2")
        assert code == 0 and out == "[6]\n[5,1]\n"

    def test_determinism(self, capsys):
        first = run(capsys, "enum", "seqcong-lg:7")
        second = run(capsys, "enum", "seqcong-lg:7")
        assert first == second

    def test_resource_cap(self, capsys):
        code, out, err = run(capsys, "enum", "all:8", "--max-items", "3")
        # the members listed before the cap are written before the exit
        assert code == 3 and out == "[8]\n[7,1]\n[6,2]\n" and "cap" in err
        # more members than one write holds, then the cap
        code, out, err = run(capsys, "enum", "all:30", "--max-items", "5000")
        lines = out.splitlines()
        assert code == 3 and len(lines) == 5000 and out.endswith("\n") and "cap" in err
        assert lines[0] == "[30]" and lines[1] == "[29,1]"
        assert run(capsys, "enum", "all:30", "--limit", "5000")[:2] == (0, out)

    def test_long_members_are_written_a_chunk_at_a_time(self, capsys, monkeypatch):
        # 1024 members of about 2000 parts each: no write holds more than
        # one chunk and one member, however few lines make up a chunk
        import io
        import sys

        from seqcong import cli

        sizes = []

        class Sink(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)

        argv = ["enum", "parts:T=1,2;n=4000", "--limit", "1024"]
        as_json = run(capsys, *argv, "--json")
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(argv) == 0
        lines = sink.getvalue().splitlines()
        assert as_json == (0, "[" + ",".join(lines) + "]\n", "")
        assert len(lines) == 1024 and len(sizes) > 1
        assert max(sizes) <= cli._CHUNK_CHARS + max(map(len, lines)) + 1

    def test_json_is_written_a_chunk_at_a_time(self, capsys, monkeypatch):
        # the array's bytes are those of one print, in writes of about a
        # chunk; a cap part way leaves the array as far as it got, unclosed
        import io
        import sys

        from seqcong import cli

        lines = run(capsys, "enum", "all:30", "--limit", "5000")[1].splitlines()
        sizes = []

        class Sink(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)

        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["enum", "all:30", "--limit", "5000", "--json"]) == 0
        assert sink.getvalue() == "[" + ",".join(lines) + "]\n"
        assert len(sizes) > 1 and max(sizes) <= cli._CHUNK_CHARS + max(map(len, lines)) + 1
        monkeypatch.undo()
        code, out, err = run(capsys, "enum", "all:30", "--max-items", "5000", "--json")
        assert code == 3 and out == "[" + ",".join(lines)
        assert err == "error: enumeration of all:30 exceeded the cap of 5000 items\n"
        # series expand --json writes its one document through the same writer
        argv = ["series", "expand", "two-variable", "--A", "ones", "--B", "naturals",
                "--xtrunc", "150", "--qtrunc", "150", "--json"]
        expected = _expanded(argv)[1]
        sizes.clear()
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(argv) == 0
        assert sink.getvalue() == expected and len(expected) > 2 * cli._CHUNK_CHARS
        assert len(sizes) > 2 and max(sizes) <= cli._CHUNK_CHARS + 40

    def test_extent_error_after_output(self, capsys, monkeypatch):
        # sna-lg reads the deepest A term it needs before its first member,
        # so a short table fails it before any output
        assert run(capsys, "enum", "sna-lg:A=1,2,3;n=4")[:2] == (2, "")
        # check reads its inputs one at a time: the reports before the
        # partition longer than A's table are written, then exit 2
        code, out, err = run(
            capsys, "check", "sna:A=2,3,1",
            stdin="[9,5,2]\n[4,2]\n[1,1,1,1]\n[3]\n", monkeypatch=monkeypatch,
        )
        assert code == 2 and "beyond extent 3" in err
        assert out == (
            '{"ok":true,"index":null,"detail":"all congruences modulo A hold"}\n'
            '{"ok":false,"index":2,"detail":"lambda_2=2 is not congruent to lambda_3=0 modulo 3"}\n'
        )

    @pytest.mark.parametrize("stdin, out, err", [
        ("[1]\n[2,2,2]\n[3]\n", '{"ok":true,"index":null,"detail":"all congruences modulo A hold"}\n',
         "error: partition of length 3 needs A terms beyond extent 2\n"),
        ("[1]\n[2,2,2]\n[3]\nbad\n", "", "error: bad token 'bad' at position 1\n"),
    ])
    def test_check_parses_every_line_before_it_reports(self, capsys, monkeypatch, stdin, out, err):
        # the reports before a line the predicate refuses are written, then
        # its error; a parse error on any later line still means no output
        assert run(capsys, "check", "sna:A=1,2", stdin=stdin, monkeypatch=monkeypatch) == (2, out, err)

    def test_check_splits_stdin_as_splitlines_does(self, capsys, monkeypatch):
        stdin = "[3,1]\r[2]\x1c\n  \n[4]\u2028[6,3]\r\n[5]\x85[1]"
        texts = [line for line in stdin.splitlines() if line.strip()]
        assert len(texts) == 6
        expected = [run(capsys, "check", "seqcong", text)[1] for text in texts]
        code, out, err = run(capsys, "check", "seqcong", stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out, err) == (1, "".join(expected), "")

    def test_bad_family(self, capsys):
        code, _, _ = run(capsys, "enum", "everything:4")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--limit", "--max-items"])
    def test_negative_counts_are_usage_errors(self, capsys, flag):
        for extra in ([], ["--count-only"]):
            code, out, err = run(capsys, "enum", "all:5", flag, "-1", *extra)
            assert code == 2 and out == "" and "must be >= 0" in err

    def test_count_only_limit_and_cap(self, capsys):
        assert run(capsys, "enum", "all:8", "--count-only", "--limit", "3")[:2] == (0, "3\n")
        assert run(capsys, "enum", "all:8", "--count-only", "--max-items", "22")[:2] == (0, "22\n")
        code, out, err = run(capsys, "enum", "all:8", "--count-only", "--max-items", "21")
        assert code == 3 and out == "" and "cap" in err
        # the cap applies to what would be listed, after --limit
        assert run(
            capsys, "enum", "all:8", "--count-only", "--limit", "5", "--max-items", "5"
        )[:2] == (0, "5\n")

    def test_count_only_has_no_default_cap(self, capsys):
        code, out, _ = run(capsys, "enum", "all:200", "--count-only")
        assert code == 0 and out == "3972999029388\n"


class TestIdeal:
    def test_closure_pass(self, capsys):
        code, out, _ = run(capsys, "ideal", "closure", "distinct", "--max-size", "10")
        assert code == 0 and '"ok":true' in out

    def test_closure_witness(self, capsys):
        code, out, _ = run(capsys, "ideal", "closure", "freqcong", "--max-size", "6")
        assert code == 1
        assert '"index":2' in out and "[2, 2]" in out

    def test_quasi(self, capsys):
        code, out, _ = run(
            capsys, "ideal", "quasi", "--A", "2,3", "--B", "5,7", "--max-size", "30"
        )
        assert code == 0 and '"ok":true' in out

    def test_equiv(self, capsys):
        code, out, _ = run(
            capsys, "ideal", "equiv", "distinct", "oddparts", "--max-size", "10"
        )
        assert code == 0 and '"equivalent":true' in out

    def test_equiv_mismatch(self, capsys):
        code, out, _ = run(
            capsys, "ideal", "equiv", "distinct", "all", "--max-size", "4"
        )
        assert code == 1 and '"first_difference":2' in out

    def test_invariance_rejects_repeated_b(self, capsys):
        code, out, err = run(
            capsys, "ideal", "invariance", "--A", "2,3", "--B", "5,5", "--max-size", "6"
        )
        assert code == 2 and out == "" and "B (5,5)" in err

    def test_invariance(self, capsys):
        code, out, _ = run(
            capsys, "ideal", "invariance", "--A", "2,3", "--B", "5,7",
            "--B-prime", "1,2", "--max-size", "8",
        )
        assert code == 0 and '"sets_differ_at":2' in out

    def test_invariance_needs_a_table_a(self, capsys):
        code, out, err = run(
            capsys, "ideal", "invariance", "--A", "naturals", "--B", "naturals", "--max-size", "5"
        )
        assert code == 2 and out == ""
        assert err == "error: a_prime is required when A is not an explicit table\n"

    def test_invariance_replaces_b_past_the_bound(self, capsys):
        # the default B' is the rule naturals, so A's last terms 2 and 1 keep
        # a position though the bound is 3
        code, out, _ = run(
            capsys, "ideal", "invariance", "--A", "5,4,3,2,1", "--B", "naturals", "--max-size", "3"
        )
        assert code == 0 and '"counts":[1,1,2,3]' in out


class TestSeries:
    def test_verify_product_sum(self, capsys):
        code, out, _ = run(
            capsys, "series", "verify", "product-sum", "--qtrunc", "10"
        )
        assert code == 0 and out == "PASS product-sum qtrunc=10\n"

    def test_verify_seeded(self, capsys):
        code, out, _ = run(
            capsys, "series", "verify", "product-seqcong", "--qtrunc", "12",
            "--f", "random-seeded:42",
        )
        assert code == 0 and out.startswith("PASS")

    def test_verify_two_variable(self, capsys):
        code, out, _ = run(
            capsys, "series", "verify", "two-variable", "--qtrunc", "20",
            "--xtrunc", "6", "--A", "naturals", "--B", "naturals",
        )
        assert code == 0

    def test_verify_distinct(self, capsys):
        code, out, _ = run(capsys, "series", "verify", "distinct", "--qtrunc", "12")
        assert code == 0

    def test_verify_needs_flags(self, capsys):
        code, _, err = run(
            capsys, "series", "verify", "two-variable", "--qtrunc", "10"
        )
        assert code == 2

    def test_expand_product(self, capsys):
        code, out, _ = run(
            capsys, "series", "expand", "product", "--qtrunc", "3",
            "--f", "table:2,3,1",
        )
        assert code == 0
        assert out == "q^0: 1\nq^1: 2\nq^2: 7\nq^3: 15\n"

    def test_expand_euler_axis(self, capsys):
        code, out, _ = run(
            capsys, "series", "expand", "euler", "--A", "2,3", "--xtrunc", "4"
        )
        assert code == 0
        assert out == "x^0: 1\nx^2: 1\nx^3: 1\nx^4: 1\n"

    @pytest.mark.parametrize("side", list(cli._SIDES))
    @pytest.mark.parametrize("xtrunc, qtrunc", [(4, 9), (0, 9), (4, 0), (0, 0)])
    def test_expand_writes_the_items_of_the_series(self, capsys, side, xtrunc, qtrunc):
        # the lines and the JSON written from the grid's cells are those of
        # items() and json.dumps, rational coefficients (random weights) included
        argv = ["series", "expand", side, "--A", "naturals", "--B", "naturals",
                "--xtrunc", str(xtrunc), "--qtrunc", str(qtrunc), "--f", "random:5"]
        lines, doc, items = _expanded([*argv, "--json"])
        assert run(capsys, *argv) == (0, lines, "")
        assert run(capsys, *argv, "--json") == (0, doc, "")
        if side == "product" and qtrunc:
            assert any(c.denominator > 1 for _, c in items)

    def test_expand_json(self, capsys):
        code, out, _ = run(
            capsys, "series", "expand", "two-variable", "--A", "2,3", "--B", "5,7",
            "--xtrunc", "2", "--qtrunc", "10", "--json",
        )
        assert code == 0
        assert out == '{"xtrunc":2,"qtrunc":10,"coefficients":[[0,0,"1"],[2,10,"1"]]}\n'


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "expand", "distinct-product", "--qtrunc", "100000000"),
        ("series", "verify", "product-sum", "--qtrunc", "100000000", "--f", "one"),
        # the random table is drawn only on the first weight lookup, after the guard
        ("series", "expand", "seqcong-sum", "--qtrunc", "3000000", "--f", "random:1"),
        # the enumerative sides total their members before building one
        ("series", "expand", "partition-sum", "--qtrunc", "100000000"),
        ("series", "expand", "partition-sum", "--qtrunc", "63"),
        ("series", "expand", "pba-sum", "--A", "naturals", "--B", "naturals",
         "--xtrunc", "100000000", "--qtrunc", "100000000"),
        ("zeta", "--T", "2,3", "--s", "2", "--depth", "100000000"),
    ],
)
def test_oversized_series_sides_exit_3_within_a_second(run_limited, argv):
    done, elapsed = run_limited(*argv)
    assert done.returncode == 3, done.stderr
    assert done.stdout == "" and "cap" in done.stderr
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv, rc, out",
    [
        # exponent notation is refused: 13 bytes of it name a billion digits
        (("zeta", "--T", "2,3", "--s", "1e1000000000", "--depth", "3"), 2, ""),
        (("series", "expand", "product", "--qtrunc", "3", "--f", "table:1e1000000000"), 2, ""),
        (("zeta", "--T", "2,3", "--s", "1e10000", "--depth", "3"), 2, ""),
        # an s of 4,001 digits costs what one of 136 bits does
        (("zeta", "--T", "2,3", "--s", "1" + "0" * 4000, "--depth", "3"), 0,
         "sum_side 1.000000000000\nproduct_side 1.000000000000\ndepth 3 terms 3\n"),
    ],
)
def test_rational_values_end_within_a_second(run_limited, argv, rc, out):
    done, elapsed = run_limited(*argv)
    assert (done.returncode, done.stdout) == (rc, out), done.stderr
    assert rc == 0 or "exponent notation" in done.stderr
    assert elapsed < 1.0


# past Python's 4,300-digit limit on converting text to an integer
OVER_LIMIT = "1" + "0" * 5000


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (("map", "pi", f"[{OVER_LIMIT}]"), None),
        (("check", "seqcong"), f"[{OVER_LIMIT}]\n"),
        (("map", "pi", "1^" + "1" * 5001), None),
        (("zeta", "--T", "2,3", "--s", "1" + "0" * 10000, "--depth", "3"), None),
        (("series", "expand", "product", "--qtrunc", "3", "--f", "table:1" + "0" * 10000), None),
        (("enum", "all:1" + "0" * 10000, "--count-only"), None),
    ],
)
def test_integers_past_the_digit_limit_are_one_short_error(capsys, monkeypatch, argv, stdin):
    code, out, err = run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 300, err
    assert "integers of more than 4300 digits are not accepted" in err


# within Python's digit limit, but thousands of characters long
NEGATIVE = "-1" + "0" * 4000


@pytest.mark.parametrize(
    "argv, quoted",
    [
        (("map", "pi", f"[{NEGATIVE}]"), "part -1000"),
        (("map", "scale", "[3]", "--A", f"constant:{NEGATIVE}", "--B", "1"), "got -1000"),
        (("map", "scale", "[3]", "--A", f"1,{NEGATIVE}", "--B", "1"), "got (1, -1000"),
        (("ideal", "closure", "all", "--max-size", NEGATIVE), "got -1000"),
        (("enum", f"all:{NEGATIVE}"), "got -1000"),
        (("enum", "all:3", "--", "all:3", "x" * 10_000), "arguments: all:3 'xxxx"),
        (("enum", "all:3", "--" + "x" * 10_000), "arguments: '--xx"),
        (("enum", "all:3", "--", "all:3", *"y" * 10_000), "arguments: all:3 y y ... (10001 words)"),
    ],
)
def test_long_refused_values_are_one_short_error(capsys, argv, quoted):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 300, err
    assert quoted in err


@pytest.mark.parametrize(
    "family, first",
    [
        ("seqcong-lg:1200", [1200] * 1200),
        ("parts:T=1;n=1200", [1] * 1200),
        ("pba:A=naturals;B=naturals;n=1200", [1200] * 1200),
    ],
)
def test_members_longer_than_the_recursion_limit_are_listed(run_limited, family, first):
    done, elapsed = run_limited("enum", family, "--limit", "1")
    assert done.returncode == 0, done.stderr
    assert done.stdout == json.dumps(first, separators=(",", ":")) + "\n"
    assert elapsed < 1.0


def test_a_parts_family_off_the_gcd_ends_at_once(run_limited):
    # every sum of 4s and 6s is even, so 31 digits of odd n list nothing
    done, elapsed = run_limited("enum", "parts:T=4,6;n=1" + "0" * 29 + "1", "--limit", "1")
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert elapsed < 1.0


def test_long_members_are_listed_within_the_memory_limit(run_limited):
    # 1024 members of about 3*10**5 parts, 300 MB of text in all: a writer
    # holding them at once, with their join, would pass the 512 MiB limit
    done, elapsed = run_limited(
        "enum", "parts:T=1,2;n=300000", "--limit", "1024", stdout=subprocess.DEVNULL
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


@pytest.mark.parametrize(
    "argv, rc, out",
    [
        # predicates and maps work on runs, so a 12-byte argument naming
        # 10**9 parts is answered without building them
        (("check", "seqcong", "1^1000000000"), 1,
         '{"ok":false,"index":1000000000,"detail":"smallest part 1 is not congruent '
         'to 0 modulo 1000000000"}\n'),
        (("check", "freqcong", "2^1000000000"), 0,
         '{"ok":true,"index":null,"detail":"every part divides its multiplicity"}\n'),
        (("check", "selfconj", "[1000000000]"), 1,
         '{"ok":false,"index":null,"detail":"not self-conjugate"}\n'),
        (("check", "distinct", "1^1000000000"), 1,
         '{"ok":false,"index":null,"detail":"a part repeats"}\n'),
        (("check", "step", "1^1000000000"), 1,
         '{"ok":false,"index":1000000000,"detail":"step 1 at index 1000000000 is '
         'neither 0 nor 1000000000"}\n'),
        (("check", "sna:A=odds", "3^1000000000"), 1,
         '{"ok":false,"index":1000000000,"detail":"lambda_1000000000=3 is not '
         'congruent to lambda_1000000001=0 modulo 1999999999"}\n'),
        (("check", "pba:A=naturals;B=naturals", "7^1000000000"), 1,
         '{"ok":false,"index":7,"detail":"multiplicity 1000000000 of part 7 is not '
         'divisible by 7 (A term at position 7)"}\n'),
        (("map", "sigma", "1000000000^1000000000"), 0, "[1000000000]\n"),
        (("map", "scale", "1^1000000000", "--A", "naturals", "--B", "naturals"), 3, ""),
        # printing 10**9 parts is refused before any text is built
        (("map", "pi", "1^1000000000"), 3, ""),
        (("map", "conjugate", "[1000000000]"), 3, ""),
        (("map", "sigma-inv", "[1000000000]"), 3, ""),
        (("orbit", "[1000000000]"), 3, ""),
        (("orbit", "1000000000^1000000000", "--side", "S"), 3, ""),
    ],
)
def test_partitions_of_a_billion_parts_within_a_second(run_limited, argv, rc, out):
    done, elapsed = run_limited(*argv)
    assert done.returncode == rc, done.stderr
    assert done.stdout == out
    if rc == 3:
        assert "printing 1000000000 parts is more than the cap of 10000000" in done.stderr
    assert elapsed < 1.0


def test_a_part_count_past_the_digit_limit_is_refused_in_one_line(run_limited):
    # pi's image has 2 (10^4300 - 1) parts, a count of 4,301 digits, more
    # than str() turns into text
    nines = "9" * 4300
    done, elapsed = run_limited("map", "pi", f"1^{nines} 2^{nines}")
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        "error: printing 1999999999999999999999999999999999999999... (4301 characters) parts "
        "is more than the cap of 10000000\n"
    )
    assert elapsed < 1.0


def test_a_part_past_the_digit_limit_is_refused_in_one_line(run_limited):
    # the conjugate's largest part is its length, 2 (10^4300 - 1), a part
    # of 4,301 digits, more than str() turns into text
    nines = "9" * 4300
    done, elapsed = run_limited("map", "conjugate", f"1^{nines} 2^{nines}")
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        "error: printing part 1999999999999999999999999999999999999999... (4301 characters) "
        "is past the limit of 4300 digits\n"
    )
    assert elapsed < 1.0
    # one digit fewer is printed
    done, _ = run_limited("map", "conjugate", f"1^{nines[1:]} 2^{nines[1:]}")
    assert (done.returncode, done.stdout) == (0, f"[{2 * int(nines[1:])},{nines[1:]}]\n")


@pytest.mark.parametrize(
    "argv, err",
    [
        # the walkers yield runs, so a first member of 10**8 parts is one
        # run, and the writer refuses it before building any text
        (("enum", "step-lg:100000000", "--limit", "1"),
         "error: printing 100000000 parts is more than the cap of 10000000\n"),
        (("enum", "parts:T=1;n=100000000", "--limit", "1"),
         "error: printing 100000000 parts is more than the cap of 10000000\n"),
        (("enum", "seqcong-lg:100000000", "--limit", "1"),
         "error: printing 100000000 parts is more than the cap of 10000000\n"),
        # the ideal checks total their members before walking any
        (("ideal", "equiv", "distinct", "oddparts", "--max-size", "77"),
         "error: counts by size to 77 would enumerate 81446349 members, more than "
         "the cap of 10000000\n"),
        (("ideal", "closure", "distinct", "--max-size", "63"),
         "error: ideal closure to size 63 would enumerate 10566508 members, more than "
         "the cap of 10000000\n"),
        (("ideal", "quasi", "--A", "naturals", "--B", "naturals", "--max-size", "2000"),
         "error: quasi-ideal check to size 2000 would enumerate 1458482069440492 "
         "members, more than the cap of 10000000\n"),
        # sna-lg computes its run ends, so no list of terms up to c is built
        (("enum", "sna-lg:A=naturals;n=100000000", "--limit", "1"),
         "error: printing 100000000 parts is more than the cap of 10000000\n"),
        (("enum", "sna-lg:A=odds;n=100000001", "--limit", "1"),
         "error: printing 50000001 parts is more than the cap of 10000000\n"),
        # a P_B(A) or two-variable table is refused as its pairs arrive
        (("enum", "pba:A=naturals;B=naturals;n=3000000", "--limit", "1"),
         "error: pba-len:3000000:A=naturals:B=naturals needs a table of 12000004 cells, "
         "more than the cap of 10000000\n"),
        (("ideal", "quasi", "--A", "ones", "--B", "naturals", "--max-size", "4000000"),
         "error: quasi-ideal check to size 4000000 needs a table of 12000003 cells, "
         "more than the cap of 10000000\n"),
        (("series", "expand", "pba-sum", "--A", "ones", "--B", "naturals",
          "--xtrunc", "0", "--qtrunc", "3000000"),
         "error: pba sum side x^0 q^3000000 needs a table of 12000004 cells, "
         "more than the cap of 10000000\n"),
        (("series", "expand", "two-variable", "--A", "ones", "--B", "naturals",
          "--xtrunc", "1", "--qtrunc", "3000000"),
         "error: two-variable product side x^1 q^3000000 needs a table of 12000004 cells, "
         "more than the cap of 10000000\n"),
    ],
)
def test_huge_walks_exit_3_within_a_second(run_limited, argv, err):
    done, elapsed = run_limited(*argv)
    assert done.returncode == 3, done.stderr
    assert done.stdout == "" and done.stderr == err
    assert elapsed < 1.0


def test_invariance_totals_its_walks_first(run_limited):
    done, elapsed = run_limited("ideal", "invariance", "--A", "1,2", "--B", "naturals",
                                "--max-size", "1000000")
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == (
        "error: count invariance to size 1000000 would enumerate 500002000002 members, "
        "more than the cap of 10000000\n"
    )
    assert elapsed < 2.0


def test_partition_sum_refusal_names_the_side(capsys):
    code, out, err = run(capsys, "series", "expand", "partition-sum", "--qtrunc", "100000000")
    assert code == 3 and out == ""
    assert err == (
        "error: partition sum side q^100000000 needs a table of 100000001 cells, "
        "more than the cap of 10000000\n"
    )


@pytest.mark.parametrize(
    "family, name, parts, detail",
    [
        ("selfconj", "is_self_conjugate", "[2,2]", "self-conjugate"),
        # a multiplicity family is checked by its rule, one walk over the runs
        ("distinct", "_first_break", "[3,3]", "a part repeats"),
    ],
)
def test_boolean_checks_evaluate_once(capsys, monkeypatch, family, name, parts, detail):
    from seqcong import predicates

    calls = []
    original = getattr(predicates, name)
    monkeypatch.setattr(predicates, name, lambda *args: calls.append(args) or original(*args))
    code, out, _ = run(capsys, "check", family, parts)
    assert json.loads(out)["detail"] == detail
    assert len(calls) == 1


class TestZeta:
    def test_single_part_bytes(self, capsys):
        code, out, _ = run(capsys, "zeta", "--T", "2", "--s", "2", "--depth", "60")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sum_side 1.333333333333"
        assert lines[1] == "product_side 1.333333333333"
        assert lines[2] == "depth 60 terms 31"

    def test_divergent(self, capsys):
        code, _, err = run(capsys, "zeta", "--T", "1,2", "--s", "2", "--depth", "10")
        assert code == 2

    def test_fraction_exponent(self, capsys):
        code, out, _ = run(capsys, "zeta", "--T", "2,3", "--s", "5/2", "--depth", "20")
        assert code == 0 and out.startswith("sum_side ")

    @pytest.mark.parametrize("dps", ["-3", "0", "10", "19"])
    def test_too_few_digits_for_the_printed_places(self, capsys, dps):
        # --dps 10 used to print product_side 1.499999999985 for 1.5; the
        # precision is no longer settable, so any --dps is a usage error
        code, out, err = run(capsys, "zeta", "--T", "2,3", "--s", "2", "--depth", "10", "--dps", dps)
        assert code == 2 and out == "" and err == "error: unrecognized arguments: --dps\n"

    def test_fewest_digits_accepted(self, capsys):
        code, out, _ = run(capsys, "zeta", "--T", "2,3", "--s", "2", "--depth", "10")
        assert code == 0
        assert out.splitlines()[1] == "product_side 1.500000000000"

    def test_digits_before_the_point_need_more_precision(self, capsys):
        # the product over 2..60 at s = 21/20 is about 38.5, two digits before the point
        argv = ("zeta", "--T", ",".join(map(str, range(2, 61))), "--s", "21/20", "--depth", "8")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.splitlines()[1] == "product_side 38.508872561389"

    @pytest.mark.parametrize(
        "terms, s, depth",
        [(range(2, 4), "2", 40), (range(2, 61), "21/20", 8), (range(2, 5002), "10001/10000", 6)],
    )
    def test_thirty_digits_print_what_two_hundred_do(self, capsys, terms, s, depth):
        # the sum never exceeds the product, which stays below |T| + 1
        exact = partition_zeta(terms, Fraction(s), depth, dps=200)
        assert exact.sum_side <= exact.product_side < len(terms) + 1
        code, out, _ = run(capsys, "zeta", "--T", ",".join(map(str, terms)), "--s", s,
                           "--depth", str(depth))
        assert code == 0
        assert out.splitlines()[:2] == [f"sum_side {_format_fixed(exact.sum_side)}",
                                        f"product_side {_format_fixed(exact.product_side)}"]

    def test_places_are_exact_above_the_default_precision(self):
        value = Fraction("12345678901.1234567890126")  # more digits than a float holds
        negative = -value
        assert _format_fixed(value) == "12345678901.123456789013"
        assert _format_fixed(negative) == "-12345678901.123456789013"


def test_usage_error_exit_code(capsys):
    assert main(["bogus"]) == 2
    assert main([]) == 2


def test_main_reads_sys_argv_without_an_argument(capsys, monkeypatch):
    # as the installed console script calls it
    monkeypatch.setattr("sys.argv", ["seqcong", "map", "pi", "[3,1]"])
    assert main() == 0 and capsys.readouterr().out == "[4,2]\n"
    monkeypatch.setattr("sys.argv", ["seqcong", "bogus"])
    assert main() == 2 and capsys.readouterr().out == ""


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["series", "--help"]) == 0
