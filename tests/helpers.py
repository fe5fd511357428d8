"""Shared helpers: weave small in-memory unit sets and drive the CLI."""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from mashup.behavior import parse_behavior
from mashup.cli import main as cli_main
from mashup.composer import compose
from mashup.contracts import parse_contracts
from mashup.metamodel import parse_metamodel
from mashup.typecheck import build_units

REPO = Path(__file__).resolve().parents[1]
FUML = REPO / "examples" / "fuml-lite"
DIAMOND = REPO / "examples" / "diamond"
CASE2 = REPO / "examples" / "case2"
MODELS = REPO / "examples" / "models"
GOLDEN = Path(__file__).resolve().parent / "golden"


def parse_units(mm=(), inv=(), act=()):
    def listed(x):
        return [x] if isinstance(x, str) else list(x)

    units = []
    for i, text in enumerate(listed(mm)):
        units.append(parse_metamodel(text, f"u{i}.mm"))
    for i, text in enumerate(listed(inv)):
        units.append(parse_contracts(text, f"u{i}.inv"))
    for i, text in enumerate(listed(act)):
        units.append(parse_behavior(text, f"u{i}.act"))
    return units


def weave(mm=(), inv=(), act=(), package=None, strict=True):
    """Parse unit texts and build them; strict=False only composes."""
    units = parse_units(mm, inv, act)
    return build_units(units, package) if strict else compose(units, package)


def run_cli(*args: str):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(args))
    return code, out.getvalue(), err.getvalue()


def trace_labels(stdout: str) -> list[str]:
    return [
        line.split("\t", 1)[1]
        for line in stdout.splitlines()
        if line.startswith("NodeExecuted\t")
    ]
