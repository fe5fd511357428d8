"""Shared expression language: AST, runtime values and the parser.

The constraint language uses exactly this side-effect-free core; the action
language embeds it and adds statements.  Position fields never participate
in structural equality so round-tripped ASTs compare equal.

Lambda syntax is ``recv.op { param | body }``.  In behavior units an
``each`` lambda may carry a statement block instead of an expression; the
parser is handed a statement-block callback for that single case and
builds the each-loop statement, :class:`EachLoop`, itself.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Union

from .diagnostics import NOPOS, Pos, Record, set_field
from .lexer import Lexer
from .semtypes import COLLECTION_KINDS, PRIMITIVES, SemType, VOID, class_type, coll, prim

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class SelfRef(Record):
    __slots__ = ("pos",)

    def __init__(self, pos: Pos = NOPOS):
        set_field(self, "pos", pos)


class VarRef(Record):
    __slots__ = ("name", "pos")

    def __init__(self, name: str, pos: Pos = NOPOS):
        set_field(self, "name", name)
        set_field(self, "pos", pos)


class IntLit(Record):
    __slots__ = ("value", "pos")

    def __init__(self, value: int, pos: Pos = NOPOS):
        set_field(self, "value", value)
        set_field(self, "pos", pos)


class BoolLit(Record):
    __slots__ = ("value", "pos")

    def __init__(self, value: bool, pos: Pos = NOPOS):
        set_field(self, "value", value)
        set_field(self, "pos", pos)


class StringLit(Record):
    __slots__ = ("value", "pos")

    def __init__(self, value: str, pos: Pos = NOPOS):
        set_field(self, "value", value)
        set_field(self, "pos", pos)


class VoidLit(Record):
    __slots__ = ("pos",)

    def __init__(self, pos: Pos = NOPOS):
        set_field(self, "pos", pos)


class FeatureNav(Record):
    __slots__ = ("receiver", "feature", "pos")

    def __init__(self, receiver: Expr, feature: str, pos: Pos = NOPOS):
        set_field(self, "receiver", receiver)
        set_field(self, "feature", feature)
        set_field(self, "pos", pos)


class OpCall(Record):
    __slots__ = ("receiver", "op", "args", "pos")

    def __init__(self, receiver: Expr, op: str, args: tuple[Expr, ...], pos: Pos = NOPOS):
        set_field(self, "receiver", receiver)
        set_field(self, "op", op)
        set_field(self, "args", args)
        set_field(self, "pos", pos)


class Lambda(Record):
    __slots__ = ("param", "body")

    def __init__(self, param: str, body: Expr):
        set_field(self, "param", param)
        set_field(self, "body", body)


# Collection operations carrying a lambda; the rest take zero or one operand.
LAMBDA_OPS = ("collect", "select", "reject", "each", "forAll", "exists")
PLAIN_OPS = ("isEmpty", "size", "first")
OPERAND_OPS = ("add", "intersection")


class CollectionOp(Record):
    __slots__ = ("receiver", "op_kind", "lam", "arg", "pos")

    def __init__(self, receiver: Expr, op_kind: str, lam: Lambda | None = None,
                 arg: Expr | None = None, pos: Pos = NOPOS):
        set_field(self, "receiver", receiver)
        set_field(self, "op_kind", op_kind)
        set_field(self, "lam", lam)
        set_field(self, "arg", arg)
        set_field(self, "pos", pos)


class TypeTest(Record):
    __slots__ = ("receiver", "test_kind", "target", "pos")

    def __init__(self, receiver: Expr, test_kind: str, target: str, pos: Pos = NOPOS):
        set_field(self, "receiver", receiver)
        set_field(self, "test_kind", test_kind)  # 'oclIsKindOf' | 'asType'
        set_field(self, "target", target)
        set_field(self, "pos", pos)


class BinOp(Record):
    __slots__ = ("lhs", "op", "rhs", "pos")

    def __init__(self, lhs: Expr, op: str, rhs: Expr, pos: Pos = NOPOS):
        set_field(self, "lhs", lhs)
        set_field(self, "op", op)
        set_field(self, "rhs", rhs)
        set_field(self, "pos", pos)


class Not(Record):
    __slots__ = ("operand", "pos")

    def __init__(self, operand: Expr, pos: Pos = NOPOS):
        set_field(self, "operand", operand)
        set_field(self, "pos", pos)


class IfExpr(Record):
    __slots__ = ("cond", "then", "orelse", "pos")

    def __init__(self, cond: Expr, then: Expr, orelse: Expr, pos: Pos = NOPOS):
        set_field(self, "cond", cond)
        set_field(self, "then", then)
        set_field(self, "orelse", orelse)
        set_field(self, "pos", pos)


class New(Record):
    __slots__ = ("class_name", "pos")

    def __init__(self, class_name: str, pos: Pos = NOPOS):
        set_field(self, "class_name", class_name)
        set_field(self, "pos", pos)


class EachLoop(Record):
    """``recv.each { x | <statements> }`` of a behavior unit: a statement
    the expression parser builds, since it starts like an expression.  The
    type checker refuses one in expression position."""

    __slots__ = ("receiver", "param", "body", "pos")

    def __init__(self, receiver: Expr, param: str, body: tuple = (), pos: Pos = NOPOS):
        set_field(self, "receiver", receiver)
        set_field(self, "param", param)
        set_field(self, "body", body)  # tuple of behavior statements
        set_field(self, "pos", pos)


Expr = Union[
    SelfRef, VarRef, IntLit, BoolLit, StringLit, VoidLit, FeatureNav, OpCall,
    CollectionOp, TypeTest, BinOp, Not, IfExpr, New, EachLoop,
]

BINARY_OPS = ("+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">=", "and", "or")

# ---------------------------------------------------------------------------
# Runtime values
# ---------------------------------------------------------------------------

# The scalar values are built and compared on every hot path, so each spells
# out its own __init__, __eq__ and __hash__ (the hash of its one-field key).


class IntV(Record):
    __slots__ = ("i",)

    def __init__(self, i: int):
        set_field(self, "i", i)

    def __eq__(self, other):
        return self.i == other.i if other.__class__ is IntV else NotImplemented

    def __hash__(self) -> int:
        return hash((self.i,))


class BoolV(Record):
    __slots__ = ("b",)

    def __init__(self, b: bool):
        set_field(self, "b", b)

    def __eq__(self, other):
        return self.b == other.b if other.__class__ is BoolV else NotImplemented

    def __hash__(self) -> int:
        return hash((self.b,))


class StringV(Record):
    __slots__ = ("s",)

    def __init__(self, s: str):
        set_field(self, "s", s)

    def __eq__(self, other):
        return self.s == other.s if other.__class__ is StringV else NotImplemented

    def __hash__(self) -> int:
        return hash((self.s,))


class VoidV:
    __slots__ = ()

    def __repr__(self) -> str:
        return "VoidV"

    def __eq__(self, other) -> bool:
        return isinstance(other, VoidV)

    def __hash__(self) -> int:
        return hash(VoidV)


VOID_VALUE = VoidV()

TRUE = BoolV(True)
FALSE = BoolV(False)


class ObjRef(namedtuple("ObjRef", "id")):
    """A reference to the object ``id``: a one-element tuple, so equality
    and hashing run in C."""

    __slots__ = ()


class Coll:
    """Ordered, materialized collection value.

    A collection is a value: nothing changes its ``items`` once it is
    built, so it may be shared (a slot's write stores a new one), and it
    hashes by its kind and elements.  Set and OrderedSet reject duplicates
    (structural equality for primitives, identity for object references);
    iteration order is always insertion order so execution stays
    deterministic.  ``make_coll`` drops duplicates through a hash in linear
    time, keeping each first occurrence.
    """

    __slots__ = ("kind", "items")

    def __init__(self, kind: str, items: list | None = None):
        assert kind in COLLECTION_KINDS
        self.kind = kind
        self.items: list = items if items is not None else []

    def __eq__(self, other) -> bool:
        return isinstance(other, Coll) and self.kind == other.kind and self.items == other.items

    def __hash__(self) -> int:
        return hash((self.kind, tuple(self.items)))

    def __repr__(self) -> str:
        return f"Coll({self.kind}, {self.items!r})"

    def __len__(self) -> int:
        return len(self.items)


Value = Union[IntV, BoolV, StringV, VoidV, ObjRef, Coll]

# Shared scalar defaults; the values are immutable, so one instance serves all.
_PRIM_DEFAULTS = {"Int": IntV(0), "Bool": FALSE, "String": StringV("")}


def type_default(t: SemType) -> Value:
    """The value a slot or variable of type ``t`` starts with: a shared
    scalar, a fresh empty collection, or void."""
    if t.kind == "prim":
        return _PRIM_DEFAULTS[t.name]
    if t.kind == "coll":
        return Coll(t.name)
    return VOID_VALUE


def make_coll(kind: str, items) -> Coll:
    items = list(items)
    if kind in ("Set", "OrderedSet") and len(items) > 1:
        items = list(dict.fromkeys(items))
    return Coll(kind, items)


def render_value(v: Value) -> str:
    if isinstance(v, IntV):
        return str(v.i)
    if isinstance(v, BoolV):
        return "true" if v.b else "false"
    if isinstance(v, StringV):
        return f'"{v.s}"'
    if isinstance(v, VoidV):
        return "void"
    if isinstance(v, ObjRef):
        return f"@{v.id}"
    if isinstance(v, Coll):
        return "[" + ", ".join(render_value(x) for x in v.items) + "]"
    return repr(v)  # not a value: a Python object passed from outside


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

StmtBlockParser = Callable[[], tuple]


def parse_sem_type(lx: Lexer) -> SemType:
    tok = lx.expect_ident("type name")
    name = tok.value
    if name == "Void":
        return VOID
    if name in PRIMITIVES:
        return prim(name)
    if name in COLLECTION_KINDS:
        lx.expect("<")
        elem = parse_sem_type(lx)
        lx.expect(">")
        return coll(name, elem)
    return class_type(name)


class ExprParser:
    """Recursive-descent expression parser over a shared lexer.

    ``stmt_block_parser`` is set by the behavior-unit parser so that
    ``recv.each { x | <statements> }`` can host a statement block.
    """

    def __init__(self, lx: Lexer, stmt_block_parser: StmtBlockParser | None = None):
        self.lx = lx
        self.stmt_block_parser = stmt_block_parser

    def expression(self) -> Expr:
        return self._or()

    def _or(self) -> Expr:
        e = self._and()
        while self.lx.at("or"):
            pos = self.lx.next().pos
            e = BinOp(e, "or", self._and(), pos)
        return e

    def _and(self) -> Expr:
        e = self._not()
        while self.lx.at("and"):
            pos = self.lx.next().pos
            e = BinOp(e, "and", self._not(), pos)
        return e

    def _not(self) -> Expr:
        if self.lx.at("not"):
            pos = self.lx.next().pos
            return Not(self._not(), pos)
        return self._comparison()

    _CMP = ("==", "!=", "<", "<=", ">", ">=")

    def _comparison(self) -> Expr:
        e = self._additive()
        tok = self.lx.peek()
        if tok.kind == "punct" and tok.value in self._CMP:
            self.lx.next()
            e = BinOp(e, tok.value, self._additive(), tok.pos)
        return e

    def _additive(self) -> Expr:
        e = self._multiplicative()
        while True:
            tok = self.lx.peek()
            if tok.kind == "punct" and tok.value in ("+", "-"):
                self.lx.next()
                e = BinOp(e, tok.value, self._multiplicative(), tok.pos)
            else:
                return e

    def _multiplicative(self) -> Expr:
        e = self._unary()
        while True:
            tok = self.lx.peek()
            if tok.kind == "punct" and tok.value in ("*", "/"):
                self.lx.next()
                e = BinOp(e, tok.value, self._unary(), tok.pos)
            else:
                return e

    def _unary(self) -> Expr:
        tok = self.lx.peek()
        if tok.kind == "punct" and tok.value == "-":
            self.lx.next()
            return BinOp(IntLit(0, tok.pos), "-", self._unary(), tok.pos)
        return self._postfix()

    def _postfix(self) -> Expr:
        e = self._primary()
        while self.lx.at("."):
            self.lx.next()
            name_tok = self.lx.expect_ident("feature or operation name")
            name, pos = name_tok.value, name_tok.pos
            if self.lx.at("("):
                e = self._call(e, name, pos)
            elif self.lx.at("{") and name in LAMBDA_OPS:
                e = self._lambda_op(e, name, pos)
                if isinstance(e, EachLoop):
                    return e  # statement-bodied each ends the chain
            else:
                e = FeatureNav(e, name, pos)
        return e

    def _call(self, receiver: Expr, name: str, pos: Pos) -> Expr:
        if name in ("oclIsKindOf", "asType"):
            self.lx.expect("(")
            target = self.lx.expect_ident("class name").value
            self.lx.expect(")")
            return TypeTest(receiver, name, target, pos)
        args = self.arguments()
        if name == "new":
            if not isinstance(receiver, VarRef) or args:
                raise self.lx.error("new takes no arguments and applies to a class name", pos)
            return New(receiver.name, pos)
        if name in PLAIN_OPS:
            if args:
                raise self.lx.error(f"{name} takes no arguments", pos)
            return CollectionOp(receiver, name, pos=pos)
        if name in OPERAND_OPS:
            if len(args) != 1:
                raise self.lx.error(f"{name} takes exactly one argument", pos)
            return CollectionOp(receiver, name, arg=args[0], pos=pos)
        if name in LAMBDA_OPS:
            raise self.lx.error(f"{name} requires a lambda: .{name} {{ x | ... }}", pos)
        return OpCall(receiver, name, tuple(args), pos)

    def _lambda_op(self, receiver: Expr, name: str, pos: Pos) -> Expr:
        self.lx.expect("{")
        param = self.lx.expect_ident("lambda parameter").value
        self.lx.expect("|")
        if name == "each" and self.stmt_block_parser is not None:
            body = self.stmt_block_parser()
            self.lx.expect("}")
            return EachLoop(receiver, param, body, pos)
        body = self.expression()
        self.lx.expect("}")
        return CollectionOp(receiver, name, lam=Lambda(param, body), pos=pos)

    def arguments(self) -> list[Expr]:
        self.lx.expect("(")
        args: list[Expr] = []
        if not self.lx.at(")"):
            args.append(self.expression())
            while self.lx.accept(","):
                args.append(self.expression())
        self.lx.expect(")")
        return args

    def _primary(self) -> Expr:
        tok = self.lx.peek()
        if tok.kind == "int":
            self.lx.next()
            return IntLit(int(tok.value), tok.pos)
        if tok.kind == "string":
            self.lx.next()
            return StringLit(tok.value, tok.pos)
        if tok.kind == "punct" and tok.value == "(":
            self.lx.next()
            e = self.expression()
            self.lx.expect(")")
            return e
        if tok.kind == "ident":
            if tok.value == "true":
                self.lx.next()
                return BoolLit(True, tok.pos)
            if tok.value == "false":
                self.lx.next()
                return BoolLit(False, tok.pos)
            if tok.value == "void":
                self.lx.next()
                return VoidLit(tok.pos)
            if tok.value == "self":
                self.lx.next()
                return SelfRef(tok.pos)
            if tok.value == "if":
                return self._if_expr()
            if tok.value == "super":
                raise self.lx.error("super is only valid as its own statement", tok.pos)
            self.lx.next()
            return VarRef(tok.value, tok.pos)
        raise self.lx.error(f"expected expression, found {Lexer._describe(tok)}", tok.pos)

    def _if_expr(self) -> Expr:
        pos = self.lx.expect("if").pos
        cond = self.expression()
        self.lx.expect("then")
        then = self.expression()
        self.lx.expect("else")
        orelse = self.expression()
        self.lx.expect("end")
        return IfExpr(cond, then, orelse, pos)


def parse_expr(text: str, unit: str = "<expr>") -> Expr:
    """Parse a standalone expression; raises UnitParseError on bad syntax."""
    lx = Lexer(text, unit)
    e = ExprParser(lx).expression()
    if not lx.at_eof():
        raise lx.error("trailing input after expression")
    return e
