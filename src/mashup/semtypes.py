"""Semantic types: primitives, class types, collections and Void.

Collections are generic over a single element type and come in three kinds
(Set, OrderedSet, Sequence); user classes cannot be generic.
"""

from __future__ import annotations

from collections import namedtuple

from .diagnostics import Record

PRIMITIVES = ("Int", "Bool", "String")
COLLECTION_KINDS = ("Set", "OrderedSet", "Sequence")


class SemType(Record, namedtuple("SemType", "kind name elem", defaults=("", None))):
    # kind: 'prim' | 'class' | 'coll' | 'void' | 'error'
    # name: primitive or class name, or collection kind
    __slots__ = ()

    def __str__(self) -> str:
        if self.kind == "coll":
            return f"{self.name}<{self.elem}>"
        if self.kind == "void":
            return "Void"
        if self.kind == "error":
            return "<error>"
        return self.name


INT = SemType("prim", "Int")
BOOL = SemType("prim", "Bool")
STRING = SemType("prim", "String")
VOID = SemType("void")
ERROR = SemType("error")

_PRIM_TYPES = {"Int": INT, "Bool": BOOL, "String": STRING}


def prim(name: str) -> SemType:
    return _PRIM_TYPES[name]


def class_type(name: str) -> SemType:
    return SemType("class", name)


def coll(kind: str, elem: SemType) -> SemType:
    return SemType("coll", kind, elem)


def is_error(t: SemType) -> bool:
    return t.kind == "error"
