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

from .diagnostics import NOPOS, Pos, Record, set_field
from .exprs import parse_sem_type
from .lexer import Lexer
from .semtypes import PRIMITIVES, SemType, VOID, class_type, coll, prim


class Bounds(Record):
    __slots__ = ("lower", "upper")

    def __init__(self, lower: int, upper: int | None):
        set_field(self, "lower", lower)
        set_field(self, "upper", upper)  # None means unbounded

    @property
    def many(self) -> bool:
        return self.upper is None

    def render(self) -> str:
        return f"[{self.lower}..{'*' if self.upper is None else self.upper}]"


SINGLE_OPTIONAL = Bounds(0, 1)
MANY = Bounds(0, None)


class Attribute(Record):
    __slots__ = ("name", "type", "bounds", "pos")

    def __init__(self, name: str, type: str, bounds: Bounds = SINGLE_OPTIONAL,
                 pos: Pos = NOPOS):
        set_field(self, "name", name)
        set_field(self, "type", type)  # one of PRIMITIVES
        set_field(self, "bounds", bounds)
        set_field(self, "pos", pos)


class Reference(Record):
    __slots__ = ("name", "target", "bounds", "containment", "opposite", "pos")

    def __init__(self, name: str, target: str, bounds: Bounds = SINGLE_OPTIONAL,
                 containment: bool = False, opposite: str | None = None, pos: Pos = NOPOS):
        set_field(self, "name", name)
        set_field(self, "target", target)
        set_field(self, "bounds", bounds)
        set_field(self, "containment", containment)
        set_field(self, "opposite", opposite)
        set_field(self, "pos", pos)


def feature_type(feat: Attribute | Reference) -> SemType:
    """The static type of a slot: a many-valued attribute is a Sequence and a
    many-valued reference an OrderedSet of its element type."""
    if isinstance(feat, Attribute):
        base = prim(feat.type)
        return coll("Sequence", base) if feat.bounds.many else base
    base = class_type(feat.target)
    return coll("OrderedSet", base) if feat.bounds.many else base


class Param(Record):
    __slots__ = ("name", "type")

    def __init__(self, name: str, type: SemType):
        set_field(self, "name", name)
        set_field(self, "type", type)


class OperationSig(Record):
    __slots__ = ("name", "params", "return_type", "pos")

    def __init__(self, name: str, params: tuple[Param, ...] = (), return_type: SemType = VOID,
                 pos: Pos = NOPOS):
        set_field(self, "name", name)
        set_field(self, "params", params)
        set_field(self, "return_type", return_type)
        set_field(self, "pos", pos)


class MetaClass(Record):
    __slots__ = ("name", "is_abstract", "supertypes", "attributes", "references", "operations",
                 "pos")

    def __init__(self, name: str, is_abstract: bool = False, supertypes: tuple[str, ...] = (),
                 attributes: tuple[Attribute, ...] = (), references: tuple[Reference, ...] = (),
                 operations: tuple[OperationSig, ...] = (), pos: Pos = NOPOS):
        set_field(self, "name", name)
        set_field(self, "is_abstract", is_abstract)
        set_field(self, "supertypes", supertypes)
        set_field(self, "attributes", attributes)
        set_field(self, "references", references)
        set_field(self, "operations", operations)
        set_field(self, "pos", pos)

    def features(self) -> tuple:
        return self.attributes + self.references


class Metamodel(Record):
    __slots__ = ("name", "classes", "source_unit")

    def __init__(self, name: str, classes: tuple[MetaClass, ...] = (),
                 source_unit: str = "<mm>"):
        set_field(self, "name", name)
        set_field(self, "classes", classes)
        set_field(self, "source_unit", source_unit)

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


def parse_feature(lx: Lexer) -> Attribute | Reference | None:
    """Parse one ``attr`` or ``ref`` member; None if neither starts here."""
    if lx.accept("attr"):
        a_tok = lx.expect_ident("attribute name")
        lx.expect(":")
        t_tok = lx.expect_ident("primitive type")
        if t_tok.value not in PRIMITIVES:
            raise lx.error(f"attribute type must be one of {', '.join(PRIMITIVES)}", t_tok.pos)
        bounds = _parse_bounds(lx)
        lx.expect(";")
        return Attribute(a_tok.value, t_tok.value, bounds, a_tok.pos)
    if lx.accept("ref"):
        r_tok = lx.expect_ident("reference name")
        lx.expect(":")
        target = lx.expect_ident("target class").value
        bounds = _parse_bounds(lx)
        containment = lx.accept("containment")
        opposite = lx.expect_ident("opposite name").value if lx.accept("opposite") else None
        lx.expect(";")
        return Reference(r_tok.value, target, bounds, containment, opposite, r_tok.pos)
    return None


def _parse_class(lx: Lexer) -> MetaClass:
    is_abstract = lx.accept("abstract")
    lx.expect("class")
    name_tok = lx.expect_ident("class name")
    supers = parse_supertypes(lx, "extends")
    lx.expect("{")
    attrs: list[Attribute] = []
    refs: list[Reference] = []
    ops: list[OperationSig] = []
    while not lx.at("}"):
        feature = parse_feature(lx)
        if feature is not None:
            (attrs if isinstance(feature, Attribute) else refs).append(feature)
        elif lx.accept("op"):
            sig = parse_operation_sig(lx)
            lx.expect(";")
            ops.append(sig)
        else:
            raise lx.error("expected attr, ref, op or '}'")
    lx.expect("}")
    return MetaClass(
        name_tok.value, is_abstract, supers, tuple(attrs), tuple(refs),
        tuple(ops), name_tok.pos,
    )


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
    while not lx.at("}"):
        classes.append(_parse_class(lx))
    lx.expect("}")
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
