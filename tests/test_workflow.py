"""The CI workflow installs the package, shows that the installed entry
point runs, and runs tier-1, the benchmark's oracle self-test and its
smoke runs.  A check of what a command prints, how it exits or what it
costs is a tier-1 test, so the workflow's shell calls seqcong only in the
entry-point lines below."""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
ENTRY_POINT = [
    "seqcong --help > /dev/null",
    '''test "$(seqcong map pi '[3,1]')" = "[4,2]"''',
]
# the installed script as a command, the package run as a module, or imported
CALL = re.compile(r"(^|[\s;|&(`])seqcong(\s|$)|-m seqcong\b|(from|import) seqcong\b")
RUN = re.compile(r"( *)(?:- )?run: *(.*)$")


def _run_lines(text: str) -> list[str]:
    """The commands of every `run:` step, one-line or block, without blank
    and comment lines."""
    lines, block = [], None  # block: the indentation of the open `run: |`
    for line in text.splitlines():
        if block is not None and (not line.strip() or len(line) - len(line.lstrip()) > block):
            lines.append(line.strip())
            continue
        block = None
        step = RUN.match(line)
        if step and step[2] in ("|", "|-", ">", ">-"):
            block = len(step[1])
        elif step:
            lines.append(step[2])
    return [line for line in lines if line and not line.startswith("#")]


def test_only_the_entry_point_lines_call_seqcong():
    calls = [line for line in _run_lines(WORKFLOW.read_text()) if CALL.search(line)]
    assert calls == ENTRY_POINT


def test_a_check_in_the_shell_is_seen():
    workflow = (
        "    steps:\n"
        "      - name: Smoke\n"
        "        run: |\n"
        "          # the entry point\n"
        "          seqcong --help > /dev/null\n"
        "\n"
        '          test "$(seqcong enum all:44 --count-only)" = 75175\n'
        "      - run: python -m seqcong.cli map pi '[3,1]'\n"
        "      - name: Tier-1 tests\n"
        "        run: python -m pytest -q\n"
    )
    calls = [line for line in _run_lines(workflow) if CALL.search(line)]
    assert calls == [
        "seqcong --help > /dev/null",
        'test "$(seqcong enum all:44 --count-only)" = 75175',
        "python -m seqcong.cli map pi '[3,1]'",
    ]
