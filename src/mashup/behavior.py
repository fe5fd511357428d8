"""Behavioral-semantics concern: the imperative action language.

A behavior unit (``.act``) reopens classes to add supertypes, structural
features and method bodies, each block an :class:`AspectClass`.  The unit
parses to an :class:`AspectUnit`, the record a constraint unit parses to
as well; only the grammars of the two differ:

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
clause, plus ``while <expr> loop ... end``, and ``recv.each { x | ... }``
runs a statement block per element (:class:`~mashup.exprs.EachLoop`).  A
``super(args)`` statement re-invokes the enclosing operation one
inheritance level up; ``super[Q]`` starts the lookup at supertype Q.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Union

from .diagnostics import NOPOS, Pos, Record
from .exprs import EachLoop, ExprParser, FeatureNav, VarRef, parse_sem_type
from .lexer import Lexer, Members, parse_block, parse_header
from .metamodel import parse_attribute, parse_operation_sig, parse_reference, parse_supertypes

# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class VarDecl(Record, namedtuple("VarDecl", "name type init pos", defaults=(None, NOPOS))):
    __slots__ = ()


class Assign(Record, namedtuple("Assign", "lvalue rhs pos", defaults=(NOPOS,))):
    __slots__ = ()  # lvalue: FeatureNav or VarRef


class ExprStmt(Record, namedtuple("ExprStmt", "expr pos", defaults=(NOPOS,))):
    __slots__ = ()


class If(Record, namedtuple("If", "cond then orelse pos", defaults=((), NOPOS))):
    __slots__ = ()


class Loop(Record, namedtuple("Loop", "init until body while_style pos",
                              defaults=((), False, NOPOS))):
    __slots__ = ()  # while_style: loop while the condition holds instead of until


class Return(Record, namedtuple("Return", "value pos", defaults=(None, NOPOS))):
    __slots__ = ()


class SuperCall(Record, namedtuple("SuperCall", "qualifier args pos", defaults=(None, (), NOPOS))):
    __slots__ = ()


Stmt = Union[VarDecl, Assign, ExprStmt, If, Loop, EachLoop, Return, SuperCall]


# ---------------------------------------------------------------------------
# Module structure
# ---------------------------------------------------------------------------


class MethodDef(Record, namedtuple("MethodDef", "sig body overrides pos",
                                   defaults=((), False, NOPOS))):
    __slots__ = ()  # overrides: declared with 'method' rather than 'operation'


class Renaming(Record, namedtuple("Renaming", "op_name from_class new_name pos",
                                  defaults=(NOPOS,))):
    __slots__ = ()


class AspectClass(Record, namedtuple("AspectClass", (
        "class_name added_supertypes added_attributes added_references methods renamings"
        " invariants pre_conditions post_conditions pos"), defaults=((),) * 8 + (NOPOS,))):
    """One ``aspect class`` block, of a behavior or a constraint unit: what
    it adds to the class it reopens.  A behavior unit fills the supertypes,
    features, methods and renamings, a constraint unit the rules."""

    __slots__ = ()


class AspectUnit(Record, namedtuple("AspectUnit", "package requires aspects source_unit")):
    """A parsed constraint or behavior unit: its header and its aspects."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_aspect_unit(lx: Lexer, what: str, supertypes: str | None,
                      members: Members) -> AspectUnit:
    """Parse a constraint or behavior unit: the header, then ``aspect class
    C [supertypes A, ...] { member* }`` blocks to the end of input.

    ``what`` names the unit kind in the header's error; ``supertypes`` is
    the keyword of the supertype list, None where the grammar has none.
    """
    package, requires = parse_header(lx, what)
    aspects: list[AspectClass] = []
    while not lx.at_eof():
        lx.expect("aspect")
        lx.expect("class")
        name_tok = lx.expect_ident("class name")
        supers = parse_supertypes(lx, supertypes) if supertypes else ()
        aspects.append(AspectClass(name_tok.value, supers, pos=name_tok.pos,
                                   **parse_block(lx, members)))
    return AspectUnit(package, requires, tuple(aspects), lx.unit)


def _parse_renaming(lx: Lexer) -> Renaming:
    op_tok = lx.expect_ident("operation name")
    lx.expect("from")
    from_class = lx.expect_ident("superclass name").value
    lx.expect("as")
    new_name = lx.expect_ident("new operation name").value
    lx.expect(";")
    return Renaming(op_tok.value, from_class, new_name, op_tok.pos)


_STMT_STARTERS = ("var", "if", "from", "until", "while", "return", "super")


class _BehaviorParser:
    def __init__(self, lx: Lexer):
        self.lx = lx
        self.exprs = ExprParser(lx, stmt_block_parser=self._stmt_block_for_each)
        self.members: Members = {
            "attr": ("added_attributes", parse_attribute),
            "ref": ("added_references", parse_reference),
            "method": ("methods", lambda _: self.method_def(overrides=True)),
            "operation": ("methods", lambda _: self.method_def(overrides=False)),
            "rename": ("renamings", _parse_renaming),
        }

    def method_def(self, overrides: bool) -> MethodDef:
        """Parse a ``method`` or ``operation`` member after its keyword."""
        lx = self.lx
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
        value = None
        if not (self.lx.at_eof() or any(map(self.lx.at, (";", "}", "end", "else")))):
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
        if isinstance(e, EachLoop):
            return e  # the expression parser builds each-loops whole
        if self.lx.accept(":="):
            if not isinstance(e, (FeatureNav, VarRef)):
                raise self.lx.error("assignment target must be a variable or feature", pos)
            return Assign(e, self.exprs.expression(), pos)
        return ExprStmt(e, pos)


def parse_behavior(text: str, unit: str = "<act>") -> AspectUnit:
    lx = Lexer(text, unit)
    return parse_aspect_unit(lx, "a behavior unit", "inherits", _BehaviorParser(lx).members)
