"""Behavioral-semantics concern: the imperative action language.

A behavior unit (``.act``) reopens classes to add supertypes, structural
features and method bodies, each block an :class:`AspectClass`:

    package fuml;
    require "fuml.mm";
    aspect class Activity inherits Executable {
      attr halted : Bool;
      operation execute() : Void is do
        ...
      end
    }

``operation`` introduces a fresh operation; ``method`` reopens an operation
whose signature already exists on the class or one of its supertypes.
``rename Op from SuperClass as NewName;`` resolves multiple-inheritance
ambiguities.  Statements need no terminating semicolon (one is accepted);
loops are ``from <stmt> until <expr> loop ... end`` with an optional from
clause, plus ``while <expr> loop ... end``.  A ``super(args)`` statement
re-invokes the enclosing operation one inheritance level up; ``super[Q]``
starts the lookup at supertype Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

from .diagnostics import NOPOS, Pos
from .exprs import EachBlock, Expr, ExprParser, FeatureNav, VarRef, parse_sem_type
from .lexer import Lexer, parse_header
from .metamodel import (
    Attribute, OperationSig, Reference, parse_feature, parse_operation_sig, parse_supertypes,
)
from .semtypes import SemType

if TYPE_CHECKING:
    from .contracts import ConditionDecl, InvariantDecl

# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarDecl:
    name: str
    type: SemType
    init: Expr | None = None
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class Assign:
    lvalue: Expr  # FeatureNav or VarRef
    rhs: Expr
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class ExprStmt:
    expr: Expr
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class If:
    cond: Expr
    then: tuple
    orelse: tuple = ()
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class Loop:
    init: "Stmt | None"
    until: Expr
    body: tuple = ()
    while_style: bool = False  # loop while the condition holds instead of until
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class EachLoop:
    receiver: Expr
    param: str
    body: tuple = ()
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class Return:
    value: Expr | None = None
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class SuperCall:
    qualifier: str | None = None
    args: tuple[Expr, ...] = ()
    pos: Pos = field(default=NOPOS, compare=False)


Stmt = Union[VarDecl, Assign, ExprStmt, If, Loop, EachLoop, Return, SuperCall]


# ---------------------------------------------------------------------------
# Module structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodDef:
    sig: OperationSig
    body: tuple = ()
    overrides: bool = False  # declared with 'method' rather than 'operation'
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class Renaming:
    op_name: str
    from_class: str
    new_name: str
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class AspectClass:
    """One ``aspect class`` block, of a behavior or a constraint unit: what
    it adds to the class it reopens.  A behavior unit fills the supertypes,
    features, methods and renamings, a constraint unit the rules."""

    class_name: str
    added_supertypes: tuple[str, ...] = ()
    added_attributes: tuple[Attribute, ...] = ()
    added_references: tuple[Reference, ...] = ()
    methods: tuple[MethodDef, ...] = ()
    renamings: tuple[Renaming, ...] = ()
    invariants: tuple[InvariantDecl, ...] = ()
    pre_conditions: tuple[ConditionDecl, ...] = ()
    post_conditions: tuple[ConditionDecl, ...] = ()
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class BehaviorModule:
    package: str
    requires: tuple[str, ...]
    aspects: tuple[AspectClass, ...]
    source_unit: str = "<act>"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_STMT_STARTERS = ("var", "if", "from", "until", "while", "return", "super")


class _BehaviorParser:
    def __init__(self, lx: Lexer):
        self.lx = lx
        self.exprs = ExprParser(lx, stmt_block_parser=self._stmt_block_for_each)

    # -- units ---------------------------------------------------------

    def module(self) -> BehaviorModule:
        lx = self.lx
        package, requires = parse_header(lx, "a behavior unit")
        aspects: list[AspectClass] = []
        while not lx.at_eof():
            aspects.append(self.aspect_class())
        return BehaviorModule(package, requires, tuple(aspects), lx.unit)

    def aspect_class(self) -> AspectClass:
        lx = self.lx
        lx.expect("aspect")
        lx.expect("class")
        name_tok = lx.expect_ident("class name")
        supers = parse_supertypes(lx, "inherits")
        lx.expect("{")
        attrs: list[Attribute] = []
        refs: list[Reference] = []
        methods: list[MethodDef] = []
        renames: list[Renaming] = []
        while not lx.at("}"):
            feature = parse_feature(lx)
            if feature is not None:
                (attrs if isinstance(feature, Attribute) else refs).append(feature)
            elif lx.at("method") or lx.at("operation"):
                methods.append(self.method_def())
            elif lx.accept("rename"):
                op_tok = lx.expect_ident("operation name")
                lx.expect("from")
                from_class = lx.expect_ident("superclass name").value
                lx.expect("as")
                new_name = lx.expect_ident("new operation name").value
                lx.expect(";")
                renames.append(Renaming(op_tok.value, from_class, new_name, op_tok.pos))
            else:
                raise lx.error("expected attr, ref, method, operation, rename or '}'")
        lx.expect("}")
        return AspectClass(
            name_tok.value, supers, tuple(attrs), tuple(refs),
            tuple(methods), tuple(renames), pos=name_tok.pos,
        )

    def method_def(self) -> MethodDef:
        lx = self.lx
        overrides = lx.peek().value == "method"
        lx.next()
        sig = parse_operation_sig(lx)
        lx.expect("is")
        lx.expect("do")
        body = self.statements_until("end")
        lx.expect("end")
        return MethodDef(sig, body, overrides, sig.pos)

    # -- statements ------------------------------------------------------

    def statements_until(self, *closers: str) -> tuple:
        stmts: list[Stmt] = []
        while not self.lx.at_eof() and not any(self.lx.at(c) for c in closers):
            stmts.append(self.statement())
        return tuple(stmts)

    def _stmt_block_for_each(self) -> tuple:
        return self.statements_until("}")

    def statement(self) -> Stmt:
        lx = self.lx
        tok = lx.peek()
        if tok.kind == "ident" and tok.value in _STMT_STARTERS:
            handler = getattr(self, f"_stmt_{tok.value}")
            stmt = handler()
        else:
            stmt = self._assign_or_expr()
        lx.accept(";")
        return stmt

    def _stmt_var(self) -> Stmt:
        pos = self.lx.expect("var").pos
        name = self.lx.expect_ident("variable name").value
        self.lx.expect(":")
        t = parse_sem_type(self.lx)
        init = None
        if self.lx.accept("init"):
            init = self.exprs.expression()
        return VarDecl(name, t, init, pos)

    def _stmt_if(self) -> Stmt:
        pos = self.lx.expect("if").pos
        cond = self.exprs.expression()
        self.lx.expect("then")
        then = self.statements_until("else", "end")
        orelse: tuple = ()
        if self.lx.accept("else"):
            orelse = self.statements_until("end")
        self.lx.expect("end")
        return If(cond, then, orelse, pos)

    def _stmt_from(self) -> Stmt:
        pos = self.lx.expect("from").pos
        init = self.statement()
        self.lx.expect("until")
        return self._loop(init, False, pos)

    def _stmt_until(self) -> Stmt:
        return self._loop(None, False, self.lx.expect("until").pos)

    def _stmt_while(self) -> Stmt:
        return self._loop(None, True, self.lx.expect("while").pos)

    def _loop(self, init: Stmt | None, while_style: bool, pos: Pos) -> Stmt:
        """Parse ``<cond> loop <body> end``, the part every loop form shares."""
        cond = self.exprs.expression()
        self.lx.expect("loop")
        body = self.statements_until("end")
        self.lx.expect("end")
        return Loop(init, cond, body, while_style, pos)

    def _stmt_return(self) -> Stmt:
        pos = self.lx.expect("return").pos
        tok = self.lx.peek()
        value = None
        stop = tok.kind == "eof" or tok.value in (";", "}", "end", "else")
        if not stop:
            value = self.exprs.expression()
        return Return(value, pos)

    def _stmt_super(self) -> Stmt:
        pos = self.lx.expect("super").pos
        qualifier = None
        if self.lx.accept("["):
            qualifier = self.lx.expect_ident("superclass name").value
            self.lx.expect("]")
        return SuperCall(qualifier, tuple(self.exprs.arguments()), pos)

    def _assign_or_expr(self) -> Stmt:
        pos = self.lx.peek().pos
        e = self.exprs.expression()
        if isinstance(e, EachBlock):
            return EachLoop(e.receiver, e.param, e.body, e.pos)
        if self.lx.accept(":="):
            if not isinstance(e, (FeatureNav, VarRef)):
                raise self.lx.error("assignment target must be a variable or feature", pos)
            return Assign(e, self.exprs.expression(), pos)
        return ExprStmt(e, pos)


def parse_behavior(text: str, unit: str = "<act>") -> BehaviorModule:
    lx = Lexer(text, unit)
    module = _BehaviorParser(lx).module()
    return module
