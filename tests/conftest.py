"""Shared pytest hooks: collects one pass/fail line per acceptance criterion
and prints them in the terminal summary, and makes hypothesis tests
deterministic (fixed draws, no example database, no deadline)."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("ddikit", derandomize=True, database=None, deadline=None)
settings.load_profile("ddikit")
# Hypothesis also caches constants it reads from the package's source; keep
# that cache in a directory removed at exit instead of ./.hypothesis.
_hypothesis_home = tempfile.TemporaryDirectory(prefix="ddikit-hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)

_criterion_lines: list[str] = []


def record_criterion(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    _criterion_lines.append(f"ACCEPTANCE {number}: {status} - {detail}")


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)
