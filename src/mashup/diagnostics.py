"""Positioned diagnostics and the error taxonomy shared by every stage.

Diagnostics render as ``unit:line:col: CODE message`` so editors can jump
to the offending location.  Stages that can recover (validation, type
checking) return diagnostic lists; stages that cannot (parsing, composition)
raise an error carrying them.

:class:`Record` is the base of every frozen value of the workbench: syntax
trees, runtime values, types and these diagnostics.
"""

from __future__ import annotations

import os
import sys
from typing import NamedTuple


class Pos(NamedTuple):
    line: int
    col: int


NOPOS = Pos(0, 0)

# How a record's ``__init__`` writes its fields past ``Record.__setattr__``.
set_field = object.__setattr__


class Record:
    """A frozen record.  A subclass lists its fields in ``__slots__``, in
    constructor order, and its ``__init__`` writes each with
    :data:`set_field`; any later assignment raises.  Two records are equal
    when they are of one class and agree on every field but ``pos``, so a
    tree parsed from shifted text equals the original; ``hash`` follows the
    same fields, and ``repr`` shows them all."""

    __slots__ = ()

    def _key(self) -> tuple:
        """The compared fields."""
        return tuple([getattr(self, name) for name in self.__slots__ if name != "pos"])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """Copy and pickle rebuild a record through its constructor, since
        setting its slots one by one would raise."""
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


class Diagnostic(Record):
    __slots__ = ("code", "message", "unit", "pos")

    def __init__(self, code: str, message: str, unit: str = "<input>", pos: Pos = NOPOS):
        set_field(self, "code", code)
        set_field(self, "message", message)
        set_field(self, "unit", unit)
        set_field(self, "pos", pos)

    def _key(self) -> tuple:
        """A diagnostic compares its position too."""
        return self.code, self.message, self.unit, self.pos

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
