"""Positioned diagnostics and the error taxonomy shared by every stage.

Diagnostics render as ``unit:line:col: CODE message`` so editors can jump
to the offending location.  Stages that can recover (validation, type
checking) return diagnostic lists; stages that cannot (parsing, composition)
raise an error carrying them.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import NamedTuple


class Pos(NamedTuple):
    line: int
    col: int


NOPOS = Pos(0, 0)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    unit: str = "<input>"
    pos: Pos = NOPOS

    def render(self) -> str:
        return f"{self.unit}:{self.pos.line}:{self.pos.col}: {self.code} {self.message}"


class WorkbenchError(Exception):
    """Base for failures that abort a pipeline stage."""

    exit_code = 1

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.render() for d in self.diagnostics))


class UnitParseError(WorkbenchError):
    """Syntax or unit-level validation failure, including unreadable files."""

    exit_code = 1


class CompositionError(WorkbenchError):
    """Weaving failure: forbidden composition, clashes, cycles, bad renames."""

    exit_code = 2


class TypecheckError(WorkbenchError):
    """Static type or model conformance failure."""

    exit_code = 3


class EvalFault(Exception):
    """Unrecoverable runtime fault inside DSL execution.

    ``kind`` is a stable machine-readable tag (TypeFault, DivisionByZero,
    NoSuchMethod, AbstractInstantiation, UnknownClass,
    UpperBoundExceeded, ContainmentCycle, StackOverflow, Fault, ...).
    """

    exit_code = 5

    def __init__(self, kind: str, message: str):
        self.kind = kind
        self.message = message
        super().__init__(f"{kind}: {message}")


class ContractViolation(EvalFault):
    """Pre/post/invariant violation raised during contract-checked dispatch."""

    exit_code = 4

    def __init__(self, kind: str, name: str, obj_id: str):
        self.name = name
        self.obj_id = obj_id
        super().__init__(kind, f"{name} @ {obj_id}")


def syntax_error(message: str, unit: str, pos: Pos) -> UnitParseError:
    return UnitParseError([Diagnostic("SyntaxError", message, unit, pos)])


def nested_too_deeply(unit: str) -> UnitParseError:
    """The error for a unit whose nesting exhausts the Python stack."""
    return syntax_error("unit is nested too deeply", unit, NOPOS)


@dataclass
class DiagnosticSink:
    """Accumulator used by validators and the type checker."""

    unit: str = "<input>"
    items: list[Diagnostic] = field(default_factory=list)

    def add(self, code: str, message: str, pos: Pos = NOPOS, unit: str | None = None) -> None:
        self.items.append(Diagnostic(code, message, unit or self.unit, pos))

    def __bool__(self) -> bool:
        return bool(self.items)


def _color_enabled(stream) -> bool:
    if os.environ.get("MASHUP_COLOR", "") == "0":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def print_diagnostics(diagnostics: list[Diagnostic], stream=None) -> None:
    stream = stream if stream is not None else sys.stderr
    color = _color_enabled(stream)
    for d in diagnostics:
        line = d.render()
        if color:
            line = f"\x1b[31m{line}\x1b[0m"
        print(line, file=stream)
