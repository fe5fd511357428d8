"""Well-typed programs cannot go wrong: the soundness of the type checker
with respect to the interpreter.

Hypothesis writes method bodies and pre/post/inv rules over ``TABLE_MM``.
Each program that ``build_units`` accepts runs under the ``prepost`` and
``full`` policies, and its invariants are then checked.  Every run must end
in a value or in one of the interpreter's dynamic faults: a void value where
a Bool, an Int, a String, an object or a collection was due, a division by
zero, a failed ``asType`` or a contract violation.  The static faults the
interpreter no longer checks for (a non-object receiver, an unknown feature,
an unbound variable, a side effect in a rule, ...) and any other Python
exception fail the property.

The generator is type directed, so most programs check; now and then it
puts an expression of another type where one was due, or a ``new`` in a
rule, so the programs near the edge of the checker are tried too.  The interpreter no longer guards rules against side effects either,
so checking the invariants must leave the model as it was.  Loops are bounded by a counter that
no generated statement assigns, and ``run`` calls ``aux``, never the
reverse, so every program ends.
"""

from __future__ import annotations

import re

from hypothesis import HealthCheck, event, given, settings, strategies as st

from helpers import TABLE_HEADER, TABLE_MM, parse_units, table_model
from mashup.diagnostics import EvalFault, TypecheckError
from mashup.exprs import ObjRef
from mashup.runtime import check_model, invoke, set_feature
from mashup.typecheck import build_units

INT, BOOL, STR, A, B, BS, INTS = (
    "Int", "Bool", "String", "A", "B", "OrderedSet<B>", "OrderedSet<Int>")
TYPES = (INT, BOOL, STR, A, B, BS, INTS)
ELEM = {BS: B, INTS: INT}
NAMES = ("a", "b", "c")  # few names, so declarations shadow and collide

# The messages of the faults checked code can reach.  An Int, Bool, String,
# object or collection operand is only ever wrong by being void.
DYNAMIC = re.compile("|".join([
    r"TypeFault: (if|loop) condition did not yield a Bool",
    r"TypeFault: \w+ lambda did not yield a Bool",
    r"TypeFault: contract rule did not yield a Bool",
    r"TypeFault: (not expects a Bool|(and|or) expects Bool operands)",
    r"TypeFault: \S+ expects Int operands, got (void and .*|.* and void)",
    r"TypeFault: intersection expects a collection argument",
    r"TypeFault: trace expects a String",
    r"TypeFault: operation call \w+ on void",
    r"TypeFault: cannot (assign|add to) feature \w+ on void",
    r"TypeFault: attribute \w+ expects \w+, got void",
    r"TypeFault: reference \w+ expects (a collection|an object, got void)",
    r"TypeFault: cannot cast \w+ object \w+ to \w+",
    r"DivisionByZero: division by zero",
    r"Fault: .*",
    r"(Precondition|Postcondition|Invariant)Violation: \w+ @ \w+",
    r"invariant did not yield a Bool",
]))


class _Writer:
    """Draws source text of a given type in a given scope."""

    def __init__(self, draw, self_class: str, pure: bool, returns: str = "Void",
                 calls_aux: bool = False):
        self.draw, self.self_class, self.pure, self.returns = draw, self_class, pure, returns
        self.calls_aux = calls_aux
        self.scopes: list[dict[str, str]] = [{}]
        self.loops = 0

    def pick(self, options):
        return self.draw(st.sampled_from(options))

    def chance(self, percent: int) -> bool:
        return self.draw(st.integers(0, 99)) < percent

    def visible(self) -> dict[str, str]:
        """The type of each variable in scope."""
        seen: dict[str, str] = {}
        for scope in self.scopes:
            seen.update(scope)
        return seen

    # -- expressions -------------------------------------------------------

    def expr(self, t: str, depth: int) -> str:
        if self.chance(1):  # the wrong type, now and then
            t = self.pick(TYPES)
        if depth <= 0 or self.chance(30):
            return self.leaf(t)
        return getattr(self, "_" + {INT: "int", BOOL: "bool", STR: "str", A: "a", B: "b",
                                    BS: "bs", INTS: "ints"}[t])(depth - 1)

    def leaf(self, t: str) -> str:
        if self.pure and t == B and self.chance(10):
            return "B.new()"  # which the checker refuses in a rule
        if self.self_class == A:
            paths = {INT: ["self.n", "self.one.w"], BOOL: ["self.one.ok"], STR: ["self.one.s"],
                     A: ["self"], B: ["self.one", "self.kids.first()"],
                     BS: ["self.kids", "self.one.kids"]}
        else:  # a rule on B: an A only by a cast that fails
            paths = {INT: ["self.w"], BOOL: ["self.ok"], STR: ["self.s"], A: ["self.asType(A)"],
                     B: ["self", "self.kids.first()"], BS: ["self.kids"]}
        literals = {INT: ["0", "1", "2", "-1"], BOOL: ["true", "false"], STR: ['"x"', '"y"'],
                    INTS: [f"{paths[BS][0]}.collect {{ q | q.w }}"]}
        names = [n for n, vt in self.visible().items() if vt == t]
        return self.pick(names + paths.get(t, []) + literals.get(t, []))

    def _int(self, d: int) -> str:
        choice = self.pick(["binop", "size", "if", "first", "nav", "call"])
        if choice == "binop":
            return f"({self.expr(INT, d)} {self.pick('+-*/')} {self.expr(INT, d)})"
        if choice == "size":
            return f"{self.expr(self.pick([BS, INTS]), d)}.size()"
        if choice == "if":
            return self._if(INT, d)
        if choice == "first":
            return f"{self.expr(INTS, d)}.first()"
        if choice == "nav":
            return f"{self.expr(B, d)}.w"
        if self.pure:
            return f"{self.expr(A, d)}.n"
        if self.calls_aux and self.chance(50):
            return f"self.aux({self.expr(INT, d)})"
        return f"{self.expr(A, d)}.show({self.expr(INT, d)})"

    def _bool(self, d: int) -> str:
        choice = self.pick(["not", "andor", "cmp", "eq", "empty", "quant", "kind", "if", "nav"])
        if choice == "not":
            return f"(not {self.expr(BOOL, d)})"
        if choice == "andor":
            return f"({self.expr(BOOL, d)} {self.pick(['and', 'or'])} {self.expr(BOOL, d)})"
        if choice == "cmp":
            return f"({self.expr(INT, d)} {self.pick(['<', '<=', '>', '>='])} {self.expr(INT, d)})"
        if choice == "eq":
            t = self.pick(TYPES)
            return f"({self.expr(t, d)} {self.pick(['==', '!='])} {self.expr(t, d)})"
        if choice == "empty":
            return f"{self.expr(self.pick([BS, INTS]), d)}.isEmpty()"
        if choice == "quant":
            recv = self.pick([BS, INTS])
            op = self.pick(["forAll", "exists"])
            return f"{self.expr(recv, d)}.{op} {self._lambda(recv, BOOL, d)}"
        if choice == "kind":
            return f"{self.expr(self.pick([A, B]), d)}.oclIsKindOf({self.pick([A, B])})"
        if choice == "if":
            return self._if(BOOL, d)
        return f"{self.expr(B, d)}.ok"

    def _str(self, d: int) -> str:
        choice = self.pick(["plus", "if", "nav"])
        if choice == "plus":
            return f"({self.expr(STR, d)} + {self.expr(STR, d)})"
        if choice == "if":
            return self._if(STR, d)
        return f"{self.expr(B, d)}.s"

    def _a(self, d: int) -> str:
        choice = self.pick(["up", "cast", "if"])
        if choice == "up" and not self.pure:
            return f"{self.expr(B, d)}.container().asType(A)"
        if choice == "cast":
            return f"{self.expr(self.pick([A, B]), d)}.asType(A)"
        return self._if(A, d)

    def _b(self, d: int) -> str:
        choice = self.pick(["first", "cast", "one", "if", "new"])
        if choice == "first":
            return f"{self.expr(BS, d)}.first()"
        if choice == "cast":
            return f"{self.expr(self.pick([A, B]), d)}.asType(B)"
        if choice == "one":
            return f"{self.expr(A, d)}.one"
        if choice == "new" and not self.pure:
            return "B.new()"
        return self._if(B, d)

    def _bs(self, d: int) -> str:
        choice = self.pick(["filter", "add", "inter", "nav", "if"])
        if choice == "filter":
            op = self.pick(["select", "reject"])
            return f"{self.expr(BS, d)}.{op} {self._lambda(BS, BOOL, d)}"
        if choice == "add":
            return f"{self.expr(BS, d)}.add({self.expr(B, d)})"
        if choice == "inter":
            return f"{self.expr(BS, d)}.intersection({self.expr(BS, d)})"
        if choice == "nav":
            return f"{self.expr(self.pick([A, B]), d)}.kids"
        return self._if(BS, d)

    def _ints(self, d: int) -> str:
        choice = self.pick(["collect", "add", "filter"])
        if choice == "collect":
            return f"{self.expr(BS, d)}.collect {self._lambda(BS, INT, d)}"
        if choice == "add":
            return f"{self.expr(INTS, d)}.add({self.expr(INT, d)})"
        return f"{self.expr(INTS, d)}.select {self._lambda(INTS, BOOL, d)}"

    def _lambda(self, recv: str, body_type: str, d: int) -> str:
        param = self.pick(NAMES)
        self.scopes.append({param: ELEM[recv]})
        body = self.expr(body_type, d)
        self.scopes.pop()
        return f"{{ {param} | {body} }}"

    def _if(self, t: str, d: int) -> str:
        return (f"(if {self.expr(BOOL, d)} then {self.expr(t, d)} "
                f"else {self.expr(t, d)} end)")

    # -- statements --------------------------------------------------------

    def block(self, depth: int, scope: dict[str, str] | None = None) -> list[str]:
        self.scopes.append(scope if scope is not None else {})
        lines = [self.stmt(depth) for _ in range(self.draw(st.integers(0, 3)))]
        self.scopes.pop()
        return lines

    def stmt(self, depth: int) -> str:
        d = 2
        kinds = ["var", "assign", "set", "add", "trace", "show", "return"]
        if depth > 0:
            kinds += ["if", "each", "loop"]
        kind = self.pick(kinds)
        if kind == "var":
            fresh = [n for n in NAMES if n not in self.scopes[-1]]
            name = self.pick(fresh if fresh and self.chance(90) else NAMES)
            t = self.pick(TYPES)
            init = f" init {self.expr(t, d)}" if self.chance(70) else ""
            if t == B and self.chance(20):
                init = " init void"
            self.scopes[-1][name] = t
            return f"var {name} : {t}{init}"
        seen = self.visible()
        if kind == "assign" and seen:
            name = self.pick(sorted(seen))
            return f"{name} := {self.expr(seen[name], d)}"
        if kind == "set":
            feature, t = self.pick([("n", INT), ("one", B), ("kids", BS)])
            target = self.target(A)
            if self.chance(50):
                feature, t = self.pick([("w", INT), ("ok", BOOL), ("s", STR), ("kids", BS)])
                target = self.target(B)
            value = "void" if t == B and self.chance(20) else self.expr(t, d)
            return f"{target}.{feature} := {value}"
        if kind == "add":
            return f"{self.target(self.pick([A, B]))}.kids.add({self.expr(B, d)})"
        if kind == "trace":
            return f"self.trace({self.expr(STR, d)})"
        if kind == "return":
            return self.ret()
        if kind == "if":
            cond = self.expr(BOOL, d)
            then, orelse = self.block(depth - 1), self.block(depth - 1)
            return "\n".join([f"if {cond} then", *then, "else", *orelse, "end"])
        if kind == "each":
            param = self.pick(NAMES)
            recv = self.expr(BS, d)
            body = self.block(depth - 1, {param: B})
            return "\n".join([f"{recv}.each {{ {param} |", *body, "}"])
        if kind == "loop":
            counter = f"i{self.loops}"
            self.loops += 1
            bound = self.draw(st.integers(0, 3))
            body = self.block(depth - 1)
            return "\n".join([f"from var {counter} : Int init 0 until {counter} >= {bound} loop",
                              *body, f"{counter} := {counter} + 1", "end"])
        return f"self.show({self.expr(INT, d)})"

    def target(self, t: str) -> str:
        """An object expression that starts a statement: not parenthesized
        (the statement before it would take it as its call's arguments) and
        not negated."""
        e = self.expr(t, 1)
        return self.leaf(t) if e[0] in "(-" else e

    def body(self) -> str:
        lines = [self.stmt(2) for _ in range(self.draw(st.integers(1, 5)))]
        if self.returns != "Void" and self.chance(80):
            lines.append(self.ret())
        return "\n".join(lines)

    def ret(self) -> str:
        # a bare return would take the next statement's first token as its value
        return "return void" if self.returns == "Void" else f"return {self.expr(self.returns, 2)}"


@st.composite
def _programs(draw):
    """An act unit (``A.run`` and ``A.aux``) and an inv unit with rules on
    ``A`` and ``B``."""
    returns = draw(st.sampled_from(("Void",) + TYPES))
    aux = _Writer(draw, A, pure=False, returns=INT)
    aux.scopes[-1]["v"] = INT
    aux_body = aux.body()
    run_body = _Writer(draw, A, pure=False, returns=returns, calls_aux=True).body()
    act = (TABLE_HEADER + "aspect class A {\n"
           "  operation show(v : Int) : Int is do return v end\n"
           f"  operation aux(v : Int) : Int is do\n{aux_body}\n  end\n"
           f"  operation run() : {returns} is do\n{run_body}\n  end\n}}\n")
    rules = {A: [], B: []}
    for i in range(draw(st.integers(0, 4))):
        cls = draw(st.sampled_from((A, B)))
        w = _Writer(draw, cls, pure=True)
        kind = draw(st.sampled_from(("inv", "pre", "post")))
        if kind == "inv" or cls == B:
            rules[cls].append(f"  inv r{i} : {w.expr(BOOL, 3)};")
            continue
        op, result = draw(st.sampled_from((("run", returns), ("aux", INT))))
        if op == "aux":
            w.scopes[-1]["v"] = INT
        if kind == "post" and result != "Void":
            w.scopes[-1]["result"] = result
        rules[A].append(f"  {kind} r{i} on {op} : {w.expr(BOOL, 3)};")
    inv = TABLE_HEADER + "".join(
        f"aspect class {cls} {{\n" + "\n".join(lines) + "\n}\n"
        for cls, lines in rules.items())
    return act, inv, draw(st.booleans())


def _outcomes(woven, with_one: bool):
    """Run ``run`` on o1 under ``prepost`` and ``full`` and check the
    invariants after each, which must leave the model as it was; yield each
    fault or error detail."""
    for policy in ("prepost", "full"):
        model = table_model(woven)
        if with_one:
            set_feature(model, "o1", "one", ObjRef("o2"))
        try:
            invoke(model, "o1", "run", [], policy)
        except EvalFault as fault:
            yield str(fault)
        before = model.fingerprint()
        for result in check_model(model):
            if result.status == "error":
                yield result.detail
        assert model.fingerprint() == before


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_programs())
def test_checked_programs_reach_only_dynamic_faults(program):
    act, inv, with_one = program
    try:
        woven = build_units(parse_units(mm=TABLE_MM, inv=inv, act=act))
    except TypecheckError:
        event("refused by the type checker")
        return
    event("accepted")
    for outcome in _outcomes(woven, with_one):
        event(outcome.split(":")[0])
        assert DYNAMIC.fullmatch(outcome), outcome
