"""Test-wide settings, and the acceptance suite's verdict lines in pytest's summary.

Property tests run derandomized: Hypothesis seeds each test from the test
itself and keeps no example database, so every run, in CI or locally, tries
the same examples and a failure reproduces.

Each test in ``tests/test_acceptance.py`` prints one ``[PASS]``/``[FAIL]``
line.  Pytest captures that output per test, so the lines are read back from
every test's captured stdout and printed together, in check order, at the
end of the run.  Under ``-s`` nothing is captured and the lines print live.
"""

from __future__ import annotations

import re

try:
    from hypothesis import settings
except ImportError:  # the test extra is missing; only the property tests need it
    pass
else:
    settings.register_profile("reproducible", derandomize=True, database=None)
    settings.load_profile("reproducible")

_VERDICT = re.compile(r"\[(?:PASS|FAIL)\] (\d\d) ")


def pytest_terminal_summary(terminalreporter):
    lines = []
    for reports in terminalreporter.stats.values():
        for rep in reports:
            if getattr(rep, "when", None) == "call":
                lines += [ln for ln in rep.capstdout.splitlines() if _VERDICT.match(ln)]
    if lines:
        terminalreporter.section("acceptance verdicts")
        for line in sorted(lines, key=lambda ln: _VERDICT.match(ln).group(1)):
            terminalreporter.write_line(line)
