"""Static-semantics concern: invariants and pre/post conditions on classes.

A constraint unit (``.inv``) reopens metamodel classes to attach named
boolean rules:

    package fuml;
    require "fuml.mm";
    aspect class CreateObjectAction {
      inv fUML_is_class : self.classifier.oclIsKindOf(Class);
      pre args_ok on run : self.name != "";
      post done on run : result == true;
    }

Each block parses to a :class:`~mashup.behavior.AspectClass` holding only
its rules.  ``self`` is bound inside every rule; pre/post conditions
additionally bind the operation parameters and post conditions bind
``result``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .behavior import AspectClass
from .diagnostics import NOPOS, Pos
from .exprs import Expr, ExprParser
from .lexer import Lexer, parse_header


@dataclass(frozen=True)
class InvariantDecl:
    name: str
    body: Expr
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class ConditionDecl:
    op_name: str
    name: str
    body: Expr
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class ContractModule:
    package: str
    requires: tuple[str, ...]
    contributions: tuple[AspectClass, ...]
    source_unit: str = "<inv>"


def parse_contracts(text: str, unit: str = "<inv>") -> ContractModule:
    lx = Lexer(text, unit)
    package, requires = parse_header(lx, "a constraint unit")
    contributions: list[AspectClass] = []
    while not lx.at_eof():
        contributions.append(_parse_aspect(lx))
    return ContractModule(package, requires, tuple(contributions), unit)


def _parse_aspect(lx: Lexer) -> AspectClass:
    lx.expect("aspect")
    lx.expect("class")
    name_tok = lx.expect_ident("class name")
    lx.expect("{")
    invs: list[InvariantDecl] = []
    pres: list[ConditionDecl] = []
    posts: list[ConditionDecl] = []
    parser = ExprParser(lx)
    while not lx.at("}"):
        if lx.accept("inv"):
            n = lx.expect_ident("invariant name")
            lx.expect(":")
            invs.append(InvariantDecl(n.value, parser.expression(), n.pos))
            lx.expect(";")
        elif lx.at("pre") or lx.at("post"):
            is_pre = lx.next().value == "pre"
            what, decls = ("precondition", pres) if is_pre else ("postcondition", posts)
            n = lx.expect_ident(f"{what} name")
            lx.expect("on")
            op = lx.expect_ident("operation name").value
            lx.expect(":")
            decls.append(ConditionDecl(op, n.value, parser.expression(), n.pos))
            lx.expect(";")
        else:
            raise lx.error("expected inv, pre, post or '}'")
    lx.expect("}")
    return AspectClass(name_tok.value, invariants=tuple(invs), pre_conditions=tuple(pres),
                       post_conditions=tuple(posts), pos=name_tok.pos)
