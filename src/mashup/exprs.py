"""Shared expression language: AST, runtime values and the parser.

The constraint language uses exactly this side-effect-free core; the action
language embeds it and adds statements.  Every AST node is a named-tuple
:class:`~mashup.diagnostics.Record` whose position field never participates
in structural equality, so round-tripped ASTs compare equal.  The scalar
runtime values are frozen slots classes instead (see :class:`_Scalar`).

Lambda syntax is ``recv.op { param | body }``.  In behavior units an
``each`` lambda may carry a statement block instead of an expression; the
parser is handed a statement-block callback for that single case and
builds the each-loop statement, :class:`EachLoop`, itself.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Union

from .diagnostics import NOPOS, Pos, Record
from .lexer import Lexer
from .semtypes import COLLECTION_KINDS, PRIMITIVES, SemType, VOID, class_type, coll, prim

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class SelfRef(Record, namedtuple("SelfRef", "pos", defaults=(NOPOS,))):
    __slots__ = ()


class VarRef(Record, namedtuple("VarRef", "name pos", defaults=(NOPOS,))):
    __slots__ = ()


class IntLit(Record, namedtuple("IntLit", "value pos", defaults=(NOPOS,))):
    __slots__ = ()


class BoolLit(Record, namedtuple("BoolLit", "value pos", defaults=(NOPOS,))):
    __slots__ = ()


class StringLit(Record, namedtuple("StringLit", "value pos", defaults=(NOPOS,))):
    __slots__ = ()


class VoidLit(Record, namedtuple("VoidLit", "pos", defaults=(NOPOS,))):
    __slots__ = ()


class FeatureNav(Record, namedtuple("FeatureNav", "receiver feature pos", defaults=(NOPOS,))):
    __slots__ = ()


class OpCall(Record, namedtuple("OpCall", "receiver op args pos", defaults=(NOPOS,))):
    __slots__ = ()


class Lambda(Record, namedtuple("Lambda", "param body")):
    __slots__ = ()


# Collection operations carrying a lambda; the rest take zero or one operand.
LAMBDA_OPS = ("collect", "select", "reject", "each", "forAll", "exists")
PLAIN_OPS = ("isEmpty", "size", "first")
OPERAND_OPS = ("add", "intersection")


class CollectionOp(Record, namedtuple("CollectionOp", "receiver op_kind lam arg pos",
                                      defaults=(None, None, NOPOS))):
    __slots__ = ()


class TypeTest(Record, namedtuple("TypeTest", "receiver test_kind target pos", defaults=(NOPOS,))):
    __slots__ = ()  # test_kind: 'oclIsKindOf' | 'asType'


class BinOp(Record, namedtuple("BinOp", "lhs op rhs pos", defaults=(NOPOS,))):
    __slots__ = ()


class Not(Record, namedtuple("Not", "operand pos", defaults=(NOPOS,))):
    __slots__ = ()


class IfExpr(Record, namedtuple("IfExpr", "cond then orelse pos", defaults=(NOPOS,))):
    __slots__ = ()


class New(Record, namedtuple("New", "class_name pos", defaults=(NOPOS,))):
    __slots__ = ()


class EachLoop(Record, namedtuple("EachLoop", "receiver param body pos", defaults=((), NOPOS))):
    """``recv.each { x | <statements> }`` of a behavior unit: a statement
    the expression parser builds, since it starts like an expression.  The
    type checker refuses one in expression position."""

    __slots__ = ()  # body: tuple of behavior statements


Expr = Union[
    SelfRef, VarRef, IntLit, BoolLit, StringLit, VoidLit, FeatureNav, OpCall,
    CollectionOp, TypeTest, BinOp, Not, IfExpr, New, EachLoop,
]

BINARY_OPS = ("+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">=", "and", "or")

# ---------------------------------------------------------------------------
# Runtime values
# ---------------------------------------------------------------------------

# How a scalar's ``__init__`` writes its slot past ``_Scalar.__setattr__``.
set_field = object.__setattr__


class _Scalar:
    """A frozen one-slot value.  The scalars stay slots classes, not named
    tuples: generated code reads ``.i``, ``.b`` and ``.s`` on every test and
    sum, a slot reads faster than a tuple field, and a one-field tuple would
    equal an :class:`ObjRef` of the same text.  Each is built and compared
    on every hot path, so it spells out its own ``__init__``, ``__eq__`` and
    ``__hash__`` (the hash of its one-field key)."""

    __slots__ = ()

    def __repr__(self) -> str:
        name = self.__slots__[0]
        return f"{type(self).__name__}({name}={getattr(self, name)!r})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """Copy and pickle rebuild a scalar through its constructor, since
        setting its slot would raise."""
        return type(self), (getattr(self, self.__slots__[0]),)


class IntV(_Scalar):
    __slots__ = ("i",)

    def __init__(self, i: int):
        set_field(self, "i", i)

    def __eq__(self, other):
        return self.i == other.i if other.__class__ is IntV else NotImplemented

    def __hash__(self) -> int:
        return hash((self.i,))


class BoolV(_Scalar):
    __slots__ = ("b",)

    def __init__(self, b: bool):
        set_field(self, "b", b)

    def __eq__(self, other):
        return self.b == other.b if other.__class__ is BoolV else NotImplemented

    def __hash__(self) -> int:
        return hash((self.b,))


class StringV(_Scalar):
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

# Operator precedence, loosest first: ``or``, ``and``, prefix ``not``, the
# comparisons (which do not chain), ``+ -`` and ``* /``.  Unary minus binds
# tighter than all of them.
_LEVELS = (("or",), ("and",), ("not",), ("==", "!=", "<", "<=", ">", ">="), ("+", "-"), ("*", "/"))
_NOT, _COMPARISON = 2, 3
_BINARY = {op: level for level, ops in enumerate(_LEVELS) if level != _NOT for op in ops}

# Words that close or continue a construct: in an expression position they
# are a syntax error, never a variable.
_CLOSERS = ("end", "else", "then", "do", "loop")


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
        return self._binary(0)

    def _binary(self, level: int) -> Expr:
        """Parse an expression whose operators bind at ``level`` or tighter.

        Precedence climbing: each operator is read once; its right operand
        holds only tighter operators, so equal ones associate to the left.
        After a comparison or a prefix ``not`` only looser operators follow.
        """
        lx = self.lx
        if level <= _NOT and lx.at("not"):
            pos = lx.next().pos
            e, ceiling = Not(self._binary(_NOT), pos), _NOT - 1
        else:
            e, ceiling = self._unary(), len(_LEVELS)
        while True:
            tok = lx.peek()
            op_level = _BINARY.get(tok.value, -1) if tok.kind in ("punct", "ident") else -1
            if not level <= op_level <= ceiling:
                return e
            lx.next()
            e = BinOp(e, tok.value, self._binary(op_level + 1), tok.pos)
            ceiling = op_level - 1 if op_level == _COMPARISON else op_level

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
                    if self.lx.at("."):
                        raise self.lx.error("an each block with statements cannot be continued")
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
            if tok.value not in _CLOSERS:
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
