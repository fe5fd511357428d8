"""Semantic types: primitives, class types, collections and Void.

Collections are generic over a single element type and come in three kinds
(Set, OrderedSet, Sequence); user classes cannot be generic.
"""

from __future__ import annotations

from .diagnostics import Record, set_field

PRIMITIVES = ("Int", "Bool", "String")
COLLECTION_KINDS = ("Set", "OrderedSet", "Sequence")


class SemType(Record):
    __slots__ = ("kind", "name", "elem")

    def __init__(self, kind: str, name: str = "", elem: SemType | None = None):
        set_field(self, "kind", kind)  # 'prim' | 'class' | 'coll' | 'void' | 'error'
        set_field(self, "name", name)  # primitive or class name, or collection kind
        set_field(self, "elem", elem)

    def __eq__(self, other):
        # the type checker compares types often: spelled out, not through _key
        if other.__class__ is not SemType:
            return NotImplemented
        return self.kind == other.kind and self.name == other.name and self.elem == other.elem

    __hash__ = Record.__hash__  # a class that defines __eq__ loses the inherited hash

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
