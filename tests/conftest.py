from __future__ import annotations

import pytest

from helpers import FUML
from mashup.typecheck import build

# (number, summary, "PASS"|"FAIL") records filled in by the acceptance suite
ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


@pytest.fixture(scope="session")
def fuml():
    """Manifest, units and woven model of the activity-language fixture."""
    return build(str(FUML / "fuml.mashup"))


@pytest.fixture(scope="session")
def fuml_woven(fuml):
    return fuml[2]


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for num, summary, status in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"  acceptance {num:02d} {status}: {summary}")
