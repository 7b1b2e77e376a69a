import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_AS_BYTES = 512 * 2**20


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))


@pytest.fixture
def run_limited():
    """Run ``python -m seqcong.cli *argv``, or ``python -c code`` when
    `code` is given, in a child limited to 512 MiB of address space (the
    limit acts on the child only); returns the completed process and its
    wall time in seconds.  ``stdout=subprocess.DEVNULL`` discards the
    child's output instead of capturing it."""

    def run(*argv: str, stdout=subprocess.PIPE, code: str | None = None):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        command = ["-c", code] if code else ["-m", "seqcong.cli"]
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *command, *argv],
            env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=10,
            preexec_fn=_limit_memory,
        )
        return done, time.perf_counter() - start

    return run
