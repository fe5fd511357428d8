"""Abstract-syntax concern: the metamodel data model, its parser and printer.

A metamodel unit (``.mm``) declares packages of classes with attributes,
references (optionally containment and/or paired with an opposite), operation
signatures and multiple inheritance:

    metamodel fuml {
      abstract class ActivityNode {
        attr name: String;
        ref outgoing: ActivityEdge[*] opposite source;
      }
      class Activity { ref node: ActivityNode[*] containment; }
    }

Multiplicities are written ``[lower..upper]`` or ``[*]``; the upper bound is
1 or unbounded.  A feature without a multiplicity is ``[0..1]``.  Parsed
metamodels are immutable.  The parser checks syntax only (and that an
attribute's type is primitive); every structural rule (names resolve,
bounds, opposites, repeated declarations, cycles) is checked once, on the
woven class table, by :func:`mashup.composer.compose` and
:func:`mashup.composer.validate_woven`, whichever unit declares a member.
"""

from __future__ import annotations

from collections import namedtuple

from .diagnostics import NOPOS, Record
from .exprs import parse_sem_type
from .lexer import Lexer, Members, parse_block
from .semtypes import PRIMITIVES, SemType, VOID, class_type, coll, prim


class Bounds(Record, namedtuple("Bounds", "lower upper")):
    __slots__ = ()  # upper: None means unbounded

    @property
    def many(self) -> bool:
        return self.upper is None

    def render(self) -> str:
        return f"[{self.lower}..{'*' if self.upper is None else self.upper}]"


SINGLE_OPTIONAL = Bounds(0, 1)
MANY = Bounds(0, None)


class Attribute(Record, namedtuple("Attribute", "name type bounds pos",
                                   defaults=(SINGLE_OPTIONAL, NOPOS))):
    __slots__ = ()  # type: one of PRIMITIVES


class Reference(Record, namedtuple("Reference", "name target bounds containment opposite pos",
                                   defaults=(SINGLE_OPTIONAL, False, None, NOPOS))):
    __slots__ = ()


def feature_type(feat: Attribute | Reference) -> SemType:
    """The static type of a slot: a many-valued attribute is a Sequence and a
    many-valued reference an OrderedSet of its element type."""
    if isinstance(feat, Attribute):
        base = prim(feat.type)
        return coll("Sequence", base) if feat.bounds.many else base
    base = class_type(feat.target)
    return coll("OrderedSet", base) if feat.bounds.many else base


class Param(Record, namedtuple("Param", "name type")):
    __slots__ = ()


class OperationSig(Record, namedtuple("OperationSig", "name params return_type pos",
                                      defaults=((), VOID, NOPOS))):
    __slots__ = ()


class MetaClass(Record, namedtuple(
        "MetaClass", "name is_abstract supertypes attributes references operations pos",
        defaults=(False, (), (), (), (), NOPOS))):
    __slots__ = ()

    def features(self) -> tuple:
        return self.attributes + self.references


class Metamodel(Record, namedtuple("Metamodel", "name classes source_unit", defaults=((), "<mm>"))):
    __slots__ = ()

    def class_named(self, name: str) -> MetaClass | None:
        for c in self.classes:
            if c.name == name:
                return c
        return None


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _parse_bounds(lx: Lexer) -> Bounds:
    if not lx.accept("["):
        return SINGLE_OPTIONAL
    if lx.accept("*"):
        lx.expect("]")
        return MANY
    lo_tok = lx.peek()
    if lo_tok.kind != "int":
        raise lx.error("expected lower bound or '*'")
    lx.next()
    lx.expect("..")
    if lx.accept("*"):
        upper: int | None = None
    else:
        hi_tok = lx.peek()
        if hi_tok.kind != "int":
            raise lx.error("expected upper bound or '*'")
        lx.next()
        upper = int(hi_tok.value)
    lx.expect("]")
    return Bounds(int(lo_tok.value), upper)


def _parse_params(lx: Lexer) -> tuple[Param, ...]:
    params: list[Param] = []
    if not lx.at(")"):
        while True:
            name = lx.expect_ident("parameter name").value
            lx.expect(":")
            params.append(Param(name, parse_sem_type(lx)))
            if not lx.accept(","):
                break
    return tuple(params)


def parse_operation_sig(lx: Lexer) -> OperationSig:
    name_tok = lx.expect_ident("operation name")
    lx.expect("(")
    params = _parse_params(lx)
    lx.expect(")")
    ret = parse_sem_type(lx) if lx.accept(":") else VOID
    return OperationSig(name_tok.value, params, ret, name_tok.pos)


def parse_supertypes(lx: Lexer, keyword: str) -> tuple[str, ...]:
    """Parse ``keyword A, B, ...`` if present (``extends`` or ``inherits``)."""
    supers: list[str] = []
    if lx.accept(keyword):
        supers.append(lx.expect_ident("superclass name").value)
        while lx.accept(","):
            supers.append(lx.expect_ident("superclass name").value)
    return tuple(supers)


def parse_attribute(lx: Lexer) -> Attribute:
    """Parse an ``attr`` member after its keyword."""
    a_tok = lx.expect_ident("attribute name")
    lx.expect(":")
    t_tok = lx.expect_ident("primitive type")
    if t_tok.value not in PRIMITIVES:
        raise lx.error(f"attribute type must be one of {', '.join(PRIMITIVES)}", t_tok.pos)
    bounds = _parse_bounds(lx)
    lx.expect(";")
    return Attribute(a_tok.value, t_tok.value, bounds, a_tok.pos)


def parse_reference(lx: Lexer) -> Reference:
    """Parse a ``ref`` member after its keyword."""
    r_tok = lx.expect_ident("reference name")
    lx.expect(":")
    target = lx.expect_ident("target class").value
    bounds = _parse_bounds(lx)
    containment = lx.accept("containment")
    opposite = lx.expect_ident("opposite name").value if lx.accept("opposite") else None
    lx.expect(";")
    return Reference(r_tok.value, target, bounds, containment, opposite, r_tok.pos)


def _parse_op(lx: Lexer) -> OperationSig:
    sig = parse_operation_sig(lx)
    lx.expect(";")
    return sig


_MEMBERS: Members = {
    "attr": ("attributes", parse_attribute),
    "ref": ("references", parse_reference),
    "op": ("operations", _parse_op),
}


def parse_metamodel(text: str, unit: str = "<mm>") -> Metamodel:
    """Parse a metamodel unit.

    Raises UnitParseError carrying a positioned diagnostic for a syntax
    error; structural rules are checked once the units are woven.
    """
    lx = Lexer(text, unit)
    lx.expect("metamodel")
    name = lx.expect_ident("metamodel name").value
    lx.expect("{")
    classes: list[MetaClass] = []
    while not lx.accept("}"):
        is_abstract = lx.accept("abstract")
        lx.expect("class")
        name_tok = lx.expect_ident("class name")
        supers = parse_supertypes(lx, "extends")
        classes.append(MetaClass(name_tok.value, is_abstract, supers, pos=name_tok.pos,
                                 **parse_block(lx, _MEMBERS)))
    if not lx.at_eof():
        raise lx.error("trailing input after metamodel")
    return Metamodel(name, tuple(classes), unit)


# ---------------------------------------------------------------------------
# Supertype order
# ---------------------------------------------------------------------------


def supertypes_first(classes: dict[str, tuple[str, ...]]) -> tuple[list[str], list[str] | None]:
    """The classes in an order that puts every class after its supertypes,
    and one cycle through the supertype relation, or None.

    One depth-first walk, without recursion, so a hierarchy of any depth in
    any declaration order is walked; supertypes ``classes`` does not list
    are skipped.  When there is a cycle the order stops short.
    """
    done: set[str] = set()
    order: list[str] = []
    for start in classes:
        if start in done:
            continue
        path = [start]  # the walk from ``start`` to the class being visited
        on_path = {start}
        pending = [iter(classes[start])]  # each path class's unvisited supertypes
        while pending:
            for sup in pending[-1]:
                if sup in on_path:
                    return order, path[path.index(sup):] + [sup]
                if sup in classes and sup not in done:
                    path.append(sup)
                    on_path.add(sup)
                    pending.append(iter(classes[sup]))
                    break
            else:
                pending.pop()
                name = path.pop()
                on_path.discard(name)
                done.add(name)
                order.append(name)
    return order, None


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def pretty_print(mm: Metamodel) -> str:
    """Render a metamodel back to source; parsing the result is an identity."""
    out = [f"metamodel {mm.name} {{"]
    for c in mm.classes:
        head = "  abstract class " if c.is_abstract else "  class "
        head += c.name
        if c.supertypes:
            head += " extends " + ", ".join(c.supertypes)
        out.append(head + " {")
        for a in c.attributes:
            out.append(f"    attr {a.name}: {a.type}{a.bounds.render()};")
        for r in c.references:
            line = f"    ref {r.name}: {r.target}{r.bounds.render()}"
            if r.containment:
                line += " containment"
            if r.opposite:
                line += f" opposite {r.opposite}"
            out.append(line + ";")
        for op in c.operations:
            params = ", ".join(f"{p.name}: {p.type}" for p in op.params)
            line = f"    op {op.name}({params})"
            if op.return_type != VOID:
                line += f": {op.return_type}"
            out.append(line + ";")
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"
