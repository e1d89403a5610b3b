"""Shared pytest hooks: collects one pass/fail line per acceptance criterion
and prints them in the terminal summary, makes hypothesis tests
deterministic (fixed draws, no example database, no deadline) and fails a
test that leaves a thread it started running."""

import tempfile
import threading

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("ddikit", derandomize=True, database=None, deadline=None)
settings.load_profile("ddikit")
# Hypothesis also caches constants it reads from the package's source; keep
# that cache in a directory removed at exit instead of ./.hypothesis.
_hypothesis_home = tempfile.TemporaryDirectory(prefix="ddikit-hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)


@pytest.fixture(autouse=True)
def _no_thread_left_running():
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running after the test: {left}"


_criterion_lines: list[str] = []


def record_criterion(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    _criterion_lines.append(f"ACCEPTANCE {number}: {status} - {detail}")


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)
