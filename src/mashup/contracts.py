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
its rules, and the unit to the :class:`~mashup.behavior.AspectUnit` a
behavior unit parses to; this grammar admits rules only, and its errors
name them.  ``self`` is bound inside every rule; pre/post conditions
additionally bind the operation parameters and post conditions bind
``result``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial

from .behavior import AspectUnit, parse_aspect_unit
from .diagnostics import NOPOS, Record
from .exprs import ExprParser
from .lexer import Lexer, Members


class InvariantDecl(Record, namedtuple("InvariantDecl", "name body pos", defaults=(NOPOS,))):
    __slots__ = ()


class ConditionDecl(Record, namedtuple("ConditionDecl", "op_name name body pos",
                                       defaults=(NOPOS,))):
    __slots__ = ()


def _parse_invariant(lx: Lexer) -> InvariantDecl:
    n = lx.expect_ident("invariant name")
    lx.expect(":")
    decl = InvariantDecl(n.value, ExprParser(lx).expression(), n.pos)
    lx.expect(";")
    return decl


def _parse_condition(lx: Lexer, what: str) -> ConditionDecl:
    n = lx.expect_ident(f"{what} name")
    lx.expect("on")
    op = lx.expect_ident("operation name").value
    lx.expect(":")
    decl = ConditionDecl(op, n.value, ExprParser(lx).expression(), n.pos)
    lx.expect(";")
    return decl


_MEMBERS: Members = {
    "inv": ("invariants", _parse_invariant),
    "pre": ("pre_conditions", partial(_parse_condition, what="precondition")),
    "post": ("post_conditions", partial(_parse_condition, what="postcondition")),
}


def parse_contracts(text: str, unit: str = "<inv>") -> AspectUnit:
    return parse_aspect_unit(Lexer(text, unit), "a constraint unit", None, _MEMBERS)
