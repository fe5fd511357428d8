"""Positioned diagnostics and the error taxonomy shared by every stage.

Diagnostics render as ``unit:line:col: CODE message`` so editors can jump
to the offending location.  Stages that can recover (validation, type
checking) return diagnostic lists; stages that cannot (parsing, composition)
raise an error carrying them.

:class:`Record` is the base of every frozen record of the workbench: syntax
trees, types, trace events and these diagnostics, each a named tuple.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from typing import NamedTuple


class Pos(NamedTuple):
    line: int
    col: int


NOPOS = Pos(0, 0)

_tuple_eq = tuple.__eq__


class Record(tuple):
    """A frozen record: a named tuple of its fields.  A subclass is declared
    as ``class R(Record, namedtuple("R", "a b pos", defaults=(NOPOS,)))``
    with ``__slots__ = ()``; the tuple type gives it construction, ``repr``,
    copy and pickle, and no attribute of it can be assigned.  Two records
    are equal when they are of one class and agree on every field but a
    last ``pos``, so a tree parsed from shifted text equals the original;
    ``hash`` follows the same fields.  A record never equals a plain tuple,
    from either side."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # a record without a position compares its whole tuple, with no slice
        if cls._fields[-1] != "pos":
            cls.__eq__, cls.__hash__ = Record._eq_whole, tuple.__hash__

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self[:-1] == other[:-1]

    def _eq_whole(self, other) -> bool:
        return other.__class__ is self.__class__ and _tuple_eq(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:-1])


class Diagnostic(Record, namedtuple("Diagnostic", "code message unit pos",
                                    defaults=("<input>", NOPOS))):
    __slots__ = ()

    # a diagnostic compares its position too
    __eq__, __hash__ = Record._eq_whole, tuple.__hash__

    def render(self) -> str:
        return f"{self.unit}:{self.pos.line}:{self.pos.col}: {self.code} {self.message}"


class WorkbenchError(Exception):
    """Base for failures that abort a pipeline stage."""

    exit_code = 1

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.render() for d in self.diagnostics))


class UnitParseError(WorkbenchError):
    """Syntax failure of a unit, including an unreadable file."""

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


class DiagnosticSink:
    """Accumulator used by validators and the type checker."""

    def __init__(self, unit: str = "<input>"):
        self.unit = unit
        self.items: list[Diagnostic] = []

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
