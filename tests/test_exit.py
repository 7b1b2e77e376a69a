"""The exit path.  ``python -m seqcong.cli`` and the ``seqcong`` script end
through ``cli.run``: it flushes stdout and stderr, then ends the process
without interpreter teardown.  A process writes the bytes an in-process
``main()`` writes and exits with its code, buffered or not; a flush that
fails is reported as teardown reports it; and nothing seqcong or mpmath
loads leaves work for the skipped teardown."""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from seqcong.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


def _spawn(command, unbuffered: bool, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *command`` with stdout buffered or not, as bytes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *command], env=env, stderr=subprocess.PIPE, timeout=60, **kwargs)


def _in_process(argv) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


@BUFFERING
@pytest.mark.parametrize(
    "argv, rc",
    [
        # 5,604 lines, about three of the writer's 64 Ki-character chunks
        (("enum", "seqcong-lg:30"), 0),
        (("enum", "seqcong-lg:30", "--json"), 0),
        (("map", "pi", "[3,1]"), 0),
        (("check", "seqcong", "[3,1]"), 1),
        (("map", "pi-inv", "[3,1]"), 1),
        (("bogus",), 2),
        (("map", "pi", "[3,-1]"), 2),
        # three members, then the error
        (("enum", "all:8", "--max-items", "3"), 3),
    ],
)
def test_a_process_writes_what_main_writes(argv, rc, unbuffered):
    expected = _in_process(argv)
    assert expected[0] == rc
    done = _spawn(("-m", "seqcong.cli", *argv), unbuffered)
    assert (done.returncode, done.stdout, done.stderr) == expected


@BUFFERING
def test_the_console_script_ends_through_run(unbuffered):
    # the wrapper pip writes for [project.scripts] calls sys.exit(<function>())
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1]
    module, function = re.search(r'^seqcong = "([\w.]+):(\w+)"$', scripts, re.M).groups()
    assert (module, function) == ("seqcong.cli", "run")
    wrapper = (f"import sys\nfrom {module} import {function}\n"
               f"sys.argv[1:] = ['enum', 'seqcong-lg:30']\nsys.exit({function}())")
    done = _spawn(("-c", wrapper), unbuffered)
    assert (done.returncode, done.stdout, done.stderr) == _in_process(["enum", "seqcong-lg:30"])
    assert done.stdout.count(b"\n") == 5604


def test_run_skips_teardown():
    callback = "import atexit, sys\natexit.register(print, 'teardown ran', file=sys.stderr)\n"
    script = "from seqcong.cli import run\nsys.argv[1:] = ['map', 'pi', '[3,1]']\nrun()"
    done = _spawn(("-c", callback + script), unbuffered=False)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"[4,2]\n", b"")
    # without run the callback does run, so the check above can fail
    done = _spawn(("-c", callback + "print('[4,2]')"), unbuffered=False)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"[4,2]\n", b"teardown ran\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_flush_is_reported_as_teardown_reports_it():
    # buffered stdout holds the line until the flush, which fails with ENOSPC;
    # a plain print shows what teardown reports for it: exit 120, two lines
    with open("/dev/full", "wb") as full:
        done = _spawn(("-m", "seqcong.cli", "map", "pi", "[3,1]"), unbuffered=False, stdout=full)
        plain = _spawn(("-c", "print('[4,2]')"), unbuffered=False, stdout=full)
    assert (done.returncode, done.stderr) == (plain.returncode, plain.stderr)
    assert done.returncode == 120
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 2 and lines[0].startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert lines[1] == "OSError: [Errno 28] No space left on device"


@BUFFERING
@pytest.mark.parametrize("argv", [("enum", "all:3"), ("enum", "all:3", "--json"), ("map", "pi", "[3,1]")])
def test_a_closed_stdout_is_skipped(argv, unbuffered):
    # with fd 1 closed at startup sys.stdout is None, which print skips
    done = _spawn(("-m", "seqcong.cli", *argv), unbuffered, stdout=None, preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (0, b"")


def test_nothing_loaded_registers_teardown_work():
    # atexit._ncallbacks is CPython's count of registered callbacks
    probe = (
        "import atexit, importlib, pkgutil, threading\n"
        "before = atexit._ncallbacks()\n"
        "import seqcong, mpmath\n"
        "names = sorted(m.name for m in pkgutil.iter_modules(seqcong.__path__))\n"
        "for name in names:\n"
        "    importlib.import_module('seqcong.' + name)\n"
        "print(repr((names, atexit._ncallbacks() - before, threading.active_count())))\n"
    )
    done = _spawn(("-c", probe), unbuffered=False)
    assert done.returncode == 0, done.stderr
    names, callbacks, threads = ast.literal_eval(done.stdout.decode())
    assert {"cli", "families", "maps", "partition", "predicates", "sequences", "series"} <= set(names)
    assert (callbacks, threads) == (0, 1)
