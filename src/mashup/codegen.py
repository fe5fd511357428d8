"""Compile a woven model's method bodies, contracts and dispatch to Python,
once.

``compiled(woven)`` writes one Python module for a woven model, runs
``compile()`` on it and caches the result on the model; ``compose`` never
changes a woven model afterwards, so the cache is never stale.  The module
holds one function per (defining class, method) body, per invariant and per
pre and post clause, one entry per distinct (operation, body, contracts),
and one dispatch table per class: operation -> entry.  Method tables,
renamings, ``super`` targets and the slot plans of written features are
resolved while writing.

An entry is what a call costs: it traces the call (``OpEnter``, then
``OpExit`` with the rendered result) and, under the interpreter's policy
(``rt.checks``, ``rt.full``), checks the precondition groups, runs the
body, and checks the postconditions and the receiver's invariants, each
rule unrolled with the message and fault kind the interpreter gives it.  A
call site names its entry when every class with the operation runs the
same one, and otherwise looks it up by the receiver's class in a constant
table.  The builtins ``container`` and ``trace`` run inline where no
class defines an operation of their name (a message other than a String
falls back to ``trace``'s runtime builtin, which faults); a class that
does dispatches to its own body.  ``fault`` calls its runtime builtin.

The generated code computes what a tree walk over the same ASTs would: it
keeps the boxed values (``IntV``, ``BoolV``, ``StringV``, ``VoidV``,
``ObjRef``, ``Coll``) and makes every dynamic check with its exact message
(a void value where a Bool, an Int, a String, an object or a collection is
due, division by zero, a failed ``asType``).  A feature that one slot plan
holds, as every class inheriting it shares its plan, is written through
that plan: a single-valued attribute value of the plan's class is
stored inline (any other value goes to ``set_slot``, which faults), and
any other write goes to ``set_slot`` or ``add_slot``, which keep the one
implementation of reference upkeep; a name several classes declare is
written through ``set_feature`` and ``add_to_feature``.  A collection is a
value that no write changes (a write stores a new one in its slot), so a
slot's collection is read, and an ``each`` statement walks it, without a
copy.

No DSL text reaches ``compile()`` raw: variables and parameters become
generated locals (``v0``, ``v1``, ...), and strings and class, feature and
operation names appear only as ``repr`` literals.  Every expression is
broken into single assignments to temporaries (``t0``, ``t1``, ...), so
the generated code evaluates operands in the order the language defines,
and each DSL statement starts a line of its own.
"""

from __future__ import annotations

from .behavior import Assign, EachLoop, ExprStmt, If, Loop, Return, SuperCall, VarDecl
from .composer import ROOT_BUILTINS
from .diagnostics import NOPOS, EvalFault, syntax_error
from .exprs import (
    BinOp, BoolLit, Coll, CollectionOp, FeatureNav, IfExpr, IntLit, New, Not, ObjRef,
    OpCall, SelfRef, StringLit, TypeTest, VarRef, VoidLit, BoolV, IntV, StringV, VoidV,
    FALSE, TRUE, VOID_VALUE, make_coll, render_value, type_default,
)


class CompiledModel:
    """The compiled module of one woven model: per class, its dispatch table
    (operation -> generated entry); each invariant declaration's rule by
    identity; and the expressions compiled since, by (expression, names).

    An entry is called as ``entry(interp, obj, *args)`` and an invariant's
    rule as ``rule(interp, obj)``, which returns the value of its
    expression.
    """

    __slots__ = ("dispatch", "rules", "expressions", "source")

    def __init__(self, namespace: dict, rules: dict, source: str):
        self.dispatch = namespace["DISPATCH"]
        self.rules = {key: (decl, namespace[name]) for key, (decl, name) in rules.items()}
        self.expressions: dict[tuple, object] = {}
        self.source = source


def compiled(woven) -> CompiledModel:
    """The woven model's compiled module, written and compiled on first use."""
    if woven.compiled is None:
        woven.compiled = _Module(woven).build()
    return woven.compiled


def compile_expr(woven, e, names) -> object:
    """A function ``f(interp, obj, *values)`` evaluating the checked
    expression ``e`` with ``self`` = ``obj`` and each of ``names`` bound to
    the value in its position; compiled once per woven model."""
    cache = compiled(woven).expressions
    key = (e, tuple(names))
    if key not in cache:
        module = _Module(woven, entries=False)
        name = module.rule(e, names)
        cache[key] = module.load("<mashup expression>", "")[name]
    return cache[key]


# ---------------------------------------------------------------------------
# Helpers the generated code calls
# ---------------------------------------------------------------------------


def _operands(op: str, lhs, rhs) -> EvalFault:
    return EvalFault(
        "TypeFault", f"{op} expects Int operands, got {render_value(lhs)} and {render_value(rhs)}"
    )


def _cast(obj, target: str) -> EvalFault:
    return EvalFault("TypeFault", f"cannot cast {obj.class_name} object {obj.id} to {target}")


def _intersection(recv: Coll, other) -> Coll:
    if not isinstance(other, Coll):
        raise EvalFault("TypeFault", "intersection expects a collection argument")
    members = set(other.items)  # membership by hash, as make_coll de-duplicates
    return Coll(recv.kind, [x for x in recv.items if x in members])


def _quotient(a: int, b: int) -> int:
    """Integer division truncating toward zero."""
    return a // b if (a < 0) == (b < 0) else -((-a) // b)


def _no_method(op: str):
    """The entry of an operation a class declares without a body."""
    def missing(rt, obj, *args):
        raise EvalFault("NoSuchMethod", f"{obj.class_name} has no operation {op}")
    return missing


def _globals(woven) -> dict:
    from .runtime import (
        BUILTINS, NodeExecuted, OpEnter, OpExit, add_slot, add_to_feature, create_instance,
        set_feature, set_slot,
    )

    return {
        "BoolV": BoolV, "IntV": IntV, "StringV": StringV, "VoidV": VoidV, "ObjRef": ObjRef,
        "Coll": Coll, "TRUE": TRUE, "FALSE": FALSE, "VOID": VOID_VALUE,
        "EvalFault": EvalFault, "make_coll": make_coll, "render_value": render_value,
        "set_feature": set_feature, "add_to_feature": add_to_feature,
        "set_slot": set_slot, "add_slot": add_slot, "create_instance": create_instance,
        "_operands": _operands, "_cast": _cast, "_intersection": _intersection,
        "_quotient": _quotient, "_no_method": _no_method,
        "_container": BUILTINS["container"], "_trace": BUILTINS["trace"],
        "_fault": BUILTINS["fault"],
        "event": tuple.__new__, "OpEnter": OpEnter, "OpExit": OpExit,
        "NodeExecuted": NodeExecuted,
        "PLANS": {name: wc.slots for name, wc in woven.classes.items()},
    }


# ---------------------------------------------------------------------------
# The module writer
# ---------------------------------------------------------------------------

# the Bool a lambda's element must give to be kept (select, reject) or to
# stop the walk (forAll, exists)
_HITS = {"select": True, "reject": False, "forAll": False, "exists": True}
_COMPARE = ("<", "<=", ">", ">=")
# the builtins a call site runs inline where no class defines them
_INLINE = ("container", "trace")


def _unless(test: str, error: str, kind: str, rule_name: str) -> str:
    """A line raising the contract violation ``error`` unless ``test``,
    which is a call or a parenthesized expression."""
    return f"if not {test}: raise rt.violation({error!r}, {kind!r}, {rule_name!r}, obj)"


class _Module:
    """Writes the source of one module: functions, then the constants and
    tables they use.  A model's module (``entries``) has an entry per
    dispatched operation, and its call sites reach them; an expression's
    module calls through ``Interpreter.call``."""

    def __init__(self, woven, entries: bool = True):
        self.woven = woven
        self.functions: dict[str, str] = {}  # name -> source
        # name -> (unit, position, what) of the DSL code a function runs
        self.origins: dict[str, tuple] = {}
        self.constants: dict[str, str] = {}  # source text -> name
        self.methods: dict[tuple[str, str], str] = {}  # (owner, op) -> name
        # (id(decl), binds result, tests a Bool) -> name
        self.rules: dict[tuple[int, bool, bool], str] = {}
        self.entries: dict[tuple, str] | None = {} if entries else None  # see entry
        self.sites: dict[str, tuple[str, str]] = {}  # operation -> see site
        self.pending: list[tuple[str, str, object]] = []
        self.plans: dict[str, list] = {}  # feature name -> the distinct plans of that name
        for wc in woven.classes.values():
            for sp in wc.slots.values():
                same = self.plans.setdefault(sp.name, [])
                if sp not in same:
                    same.append(sp)

    def const(self, text: str) -> str:
        """The name of a module constant with the source ``text``."""
        if text not in self.constants:
            self.constants[text] = f"c{len(self.constants)}"
        return self.constants[text]

    def plan(self, feature: str):
        """The one slot plan of every feature named ``feature``, and the
        constant holding it; None when classes declare several."""
        plans = self.plans[feature]
        if len(plans) != 1:
            return None
        return plans[0], self.const(f"PLANS[{plans[0].owner!r}][{feature!r}]")

    def method(self, owner: str, mdef) -> str:
        """The name of the function of ``owner``'s body of ``mdef``."""
        key = (owner, mdef.sig.name)
        if key not in self.methods:
            self.methods[key] = name = f"m{len(self.methods)}"
            self.pending.append((name, owner, mdef))
        return self.methods[key]

    def rule(self, body, names, result: bool = False, test: bool = False) -> str:
        """Write a rule function: ``self`` and ``names`` (then ``result``)
        bound, returning the value of ``body``, or with ``test`` whether
        that value is true (a value other than a Bool is a fault)."""
        params = [f"v{i}" for i in range(len(names))]
        scope = dict(zip(names, params))
        if result:
            scope["result"] = "result"
            params.insert(0, "result")
        fn = _Function(self, f"r{len(self.functions)}", params, scope)
        value = fn.expr(body)
        if test:
            if fn.known.get(value) is not BoolV:
                fn.emit(f"if {value}.__class__ is not BoolV: "
                        "raise EvalFault('TypeFault', 'contract rule did not yield a Bool')")
            value += ".b"
        fn.emit(f"return {value}")
        self.functions[fn.name] = fn.source()
        return fn.name

    def decl_rule(self, decl, names=(), result: bool = False, test: bool = False) -> str:
        """The rule function of a contract declaration, written once."""
        key = (id(decl), result, test)
        if key not in self.rules:
            self.rules[key] = name = self.rule(decl.body, names, result, test)
            self.origins[name] = (self.woven.package, decl.pos, f"rule {decl.name}")
        return self.rules[key]

    def build(self) -> CompiledModel:
        woven = self.woven
        dispatch, inv_rules = [], {}
        for cname, wc in woven.classes.items():
            ops = "".join(f"{op!r}: {self.entry(wc, op)}, " for op in wc.method_table)
            dispatch.append(f"{cname!r}: {{{ops}}}")
            for _owner, inv in wc.flat_invariants:
                inv_rules[id(inv)] = (inv, self.decl_rule(inv))
        while self.pending:
            self._method(*self.pending.pop())
        namespace = self.load(f"<mashup {woven.package}>", f"DISPATCH = {{{', '.join(dispatch)}}}")
        return CompiledModel(namespace, inv_rules, self.source)

    def load(self, filename: str, tables: str) -> dict:
        """Compile and run the module; returns its namespace."""
        self.source = "\n\n".join(
            [*self.functions.values()]
            + [f"{name} = {text}" for text, name in self.constants.items()] + [tables]) + "\n"
        try:
            code = compile(self.source, filename, "exec")
        except (SyntaxError, RecursionError):
            raise self._too_deep() from None
        namespace = _globals(self.woven)
        exec(code, namespace)
        return namespace

    def _too_deep(self):
        """The error for the first function nested deeper than Python's
        compiler takes (100 indentation levels, 20 nested loops)."""
        for name, source in self.functions.items():
            try:
                compile(source, name, "exec")
            except (SyntaxError, RecursionError):
                unit, pos, what = self.origins.get(name, ("<expr>", NOPOS, "expression"))
                return syntax_error(f"{what} is nested too deeply to compile", unit, pos)
        raise AssertionError("the module compiles function by function")

    def entry(self, wc, op: str) -> str:
        """The entry of ``op`` on class ``wc``: one function per distinct
        (operation, body, contracts).  It traces the call and, under the
        interpreter's policy, checks the precondition groups (some group
        must hold all its rules), then runs the body, then checks the
        postconditions and (``full``) the class's invariants."""
        owner, mdef = wc.method_table[op][0]
        body = self.method(owner, mdef)
        pre = wc.flat_pre.get(op, ())
        groups = tuple(tuple(self.decl_rule(c, self._params(o, op), test=True) for c in clauses)
                       for o, clauses in pre)
        post = tuple((c.name, self.decl_rule(c, self._params(o, op), True, True))
                     for o, c in wc.flat_post.get(op, ()))
        invs = tuple((inv.name, self.decl_rule(inv, test=True)) for _o, inv in wc.flat_invariants)
        key = (op, body, pre[0][1][0].name if pre else None, groups, post, invs)
        if key not in self.entries:
            self.entries[key] = name = f"e{len(self.entries)}"
            self._entry(name, len(mdef.sig.params), *key)
        return self.entries[key]

    def _entry(self, name: str, arity: int, op: str, body: str, pre_name, groups, post,
               invs) -> None:
        params = "".join(f", v{i}" for i in range(arity))
        call = f"{body}(rt, obj{params})"
        checked = []
        if groups:
            holds = [" and ".join(f"{r}(rt, obj{params})" for r in group) for group in groups]
            checked.append(_unless(f"({' or '.join(holds)})", "PreconditionViolation", "pre",
                                   pre_name))
        checked.append(f"result = {call}")
        checked += [_unless(f"{r}(rt, obj, result{params})", "PostconditionViolation", "post",
                            rule_name) for rule_name, r in post]
        if invs:
            checked.append("if rt.full:")
            checked += ["    " + _unless(f"{r}(rt, obj)", "InvariantViolation", "inv", rule_name)
                        for rule_name, r in invs]
        lines = [f"def {name}(rt, obj{params}):",
                 f"    rt.trace.append(event(OpEnter, (obj.id, {op!r})))"]
        if len(checked) > 1:
            lines += ["    if rt.checks:", *("        " + line for line in checked),
                      "    else:", f"        result = {call}"]
        else:
            lines.append(f"    result = {call}")
        lines += ["    rt.trace.append(event(OpExit, (obj.id, "
                  f"{op!r}, 'void' if result is VOID else render_value(result))))",
                  "    return result"]
        self.functions[name] = "\n".join(lines)

    def site(self, op: str) -> tuple[str, str]:
        """How a call of ``op`` runs: ``("builtin", op)`` inline, for
        ``container`` or ``trace`` when no class defines it; ``("entry",
        name)``, when every class that has ``op`` runs the same entry; else
        ``("table", name)``, a constant mapping each such class name to its
        entry."""
        if op not in self.sites:
            classes = self.woven.classes
            targets = {}
            for cname, wc in classes.items():
                if op in wc.method_table:
                    targets[cname] = self.entry(wc, op)
                elif op in ROOT_BUILTINS:
                    targets[cname] = f"_{op}"
                elif op in wc.op_sigs:  # declared without a body
                    targets[cname] = self.const(f"_no_method({op!r})")
            found = set(targets.values())
            if op in _INLINE and found <= {f"_{op}"}:
                self.sites[op] = ("builtin", op)
            elif len(found) == 1:
                self.sites[op] = ("entry", found.pop())
            else:
                table = ", ".join(f"{c!r}: {fn}" for c, fn in targets.items())
                self.sites[op] = ("table", self.const("{" + table + "}"))
        return self.sites[op]

    def _params(self, owner: str, op: str) -> list[str]:
        """The parameter names of ``owner``'s signature for ``op``, which
        its rules were checked against."""
        entry = self.woven.classes[owner].op_sigs.get(op)
        return [p.name for p in entry[0].params] if entry else []

    def _method(self, name: str, owner: str, mdef) -> None:
        params = [f"v{i}" for i in range(len(mdef.sig.params))]
        fn = _Function(self, name, params, dict(zip((p.name for p in mdef.sig.params), params)),
                       owner, mdef.sig.name)
        fn.depth += 1
        fn.block(mdef.body, {})
        if not (mdef.body and isinstance(mdef.body[-1], Return)):
            fn.emit("return VOID")
        fn.depth -= 1
        fn.emit("except RecursionError:")
        message = f"call stack exhausted in {owner}.{mdef.sig.name}"
        fn.emit(f"    raise EvalFault('StackOverflow', {message!r}) from None")
        self.functions[name] = fn.source(try_body=True)
        unit = self.woven.method_units.get((owner, mdef.sig.name), self.woven.package)
        self.origins[name] = (unit, mdef.pos, f"{owner}.{mdef.sig.name}")

    def super_target(self, owner: str, op: str, qualifier: str | None) -> str:
        """The function a ``super`` in ``owner``'s ``op`` calls: a name, or
        a table by the receiver's class."""
        classes = self.woven.classes
        if qualifier is not None:
            return self.method(*classes[qualifier].raw_definers[op][0])
        targets = {}
        for cname, wc in classes.items():
            chain = wc.raw_definers.get(op, ())
            owners = [o for o, _m in chain]
            if owner in owners:
                targets[cname] = self.method(*chain[owners.index(owner) + 1])
        if len(set(targets.values())) == 1:
            return next(iter(targets.values()))
        table = ", ".join(f"{c!r}: {fn}" for c, fn in targets.items())
        return f"{self.const('{' + table + '}')}[obj.class_name]"

    def conforming(self, target: str) -> str:
        """A constant: the names of the classes conforming to ``target``."""
        names = sorted(c for c in self.woven.classes if self.woven.conforms(c, target))
        return self.const(f"frozenset({names!r})")


class _Function:
    """The source of one generated function.  ``scopes`` map DSL variable
    names to generated locals; ``known`` holds the temporaries known to
    hold a Bool or an Int, whose checks are left out."""

    def __init__(self, module: _Module, name: str, params: list[str],
                 scope: dict[str, str], owner: str | None = None, op: str | None = None):
        self.module, self.name, self.params = module, name, params
        self.owner, self.op = owner, op
        self.scopes = [scope]
        self.lines: list[str] = []
        self.depth = 1
        self.counter = len(params)
        self.known: dict[str, type] = {"TRUE": BoolV, "FALSE": BoolV}
        self.needs: set[str] = set()

    def source(self, try_body: bool = False) -> str:
        preludes = {"me": "me = ObjRef(obj.id)", "objects": "objects = rt.objects",
                    "model": "model = rt.model"}
        indent = "        " if try_body else "    "
        head = [f"def {self.name}(rt, obj{''.join(', ' + p for p in self.params)}):"]
        head += ["    try:"] if try_body else []
        head += [indent + preludes[n] for n in sorted(self.needs)]
        return "\n".join(head + self.lines)

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def use(self, need: str) -> str:
        self.needs.add(need)
        return need

    # -- statements ------------------------------------------------------

    def block(self, stmts, scope: dict[str, str]) -> None:
        """Write ``stmts`` with ``scope`` as their innermost scope, inside
        the current indentation."""
        self.scopes.append(scope)
        start = len(self.lines)
        for stmt in stmts:
            self.stmt(stmt)
        if len(self.lines) == start:
            self.emit("pass")
        self.scopes.pop()

    def indented(self, stmts, scope: dict[str, str]) -> None:
        self.depth += 1
        self.block(stmts, scope)
        self.depth -= 1

    def stmt(self, stmt) -> None:
        getattr(self, "_" + type(stmt).__name__.lower())(stmt)

    def local(self, name: str) -> str:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise AssertionError(f"unbound variable {name} in checked code")

    def _vardecl(self, stmt: VarDecl) -> None:
        value = self.expr(stmt.init) if stmt.init is not None else self.default(stmt.type)
        self.scopes[-1][stmt.name] = v = self.fresh("v")
        self.emit(f"{v} = {value}")

    def default(self, t) -> str:
        if t.kind == "coll":
            return f"Coll({t.name!r})"
        return self.value_const(type_default(t))

    def _assign(self, stmt: Assign) -> None:
        value = self.expr(stmt.rhs)
        lv = stmt.lvalue
        if isinstance(lv, VarRef):
            self.emit(f"{self.local(lv.name)} = {value}")
            return
        recv = self.receiver(lv.receiver, f"cannot assign feature {lv.feature} on void")
        plan = self.module.plan(lv.feature)
        if plan is None:
            self.emit(f"set_feature({self.use('model')}, {recv}, {lv.feature!r}, {value})")
            return
        sp, const = plan
        if sp.prim is None or sp.many:
            self.emit(f"set_slot({self.use('model')}, {self.target(recv)}, {const}, {value})")
            return
        # a single-valued attribute: stored inline when its class is the
        # plan's, else set_slot's check faults
        store = f"{self.target(recv)}.slots[{lv.feature!r}] = {value}"
        if self.known.get(value) is sp.prim:
            self.emit(store)
            return
        self.emit(f"if {value}.__class__ is {sp.prim.__name__}: {store}")
        self.emit(f"else: set_slot({self.use('model')}, {self.target(recv)}, {const}, {value})")

    def _exprstmt(self, stmt: ExprStmt) -> None:
        e = stmt.expr
        # statement-position add on a feature is the EMOF element-add
        if (isinstance(e, CollectionOp) and e.op_kind == "add"
                and isinstance(e.receiver, FeatureNav)):
            nav = e.receiver
            recv = self.receiver(nav.receiver, f"cannot add to feature {nav.feature} on void")
            value = self.expr(e.arg)
            plan = self.module.plan(nav.feature)
            model = self.use("model")
            if plan is None:
                self.emit(f"add_to_feature({model}, {recv}, {nav.feature!r}, {value})")
            else:
                self.emit(f"add_slot({model}, {self.target(recv)}, {plan[1]}, {value})")
            return
        self.expr(e)

    def target(self, recv: str) -> str:
        """The object a receiver checked by ``receiver`` refers to."""
        return recv if recv == "obj" else f"{self.use('objects')}[{recv}.id]"

    def receiver(self, e, void_message: str) -> str:
        """An object receiver: ``obj`` for ``self``, else an ObjRef checked
        against void."""
        if isinstance(e, SelfRef):
            return "obj"
        r = self.expr(e)
        self.emit(f"if {r}.__class__ is VoidV: raise EvalFault('TypeFault', {void_message!r})")
        return r

    def test(self, cond, what: str) -> str:
        """A condition, checked to be a Bool."""
        c = self.expr(cond)
        if self.known.get(c) is not BoolV:
            self.emit(f"if {c}.__class__ is not BoolV: "
                      f"raise EvalFault('TypeFault', {what + ' did not yield a Bool'!r})")
        return c

    def _if(self, stmt: If) -> None:
        self.emit(f"if {self.test(stmt.cond, 'if condition')}.b:")
        self.indented(stmt.then, {})
        if stmt.orelse:
            self.emit("else:")
            self.indented(stmt.orelse, {})

    def _loop(self, stmt: Loop) -> None:
        # the loop scope holds a from-clause's variable; each pass of the
        # body gets a scope inside it
        self.scopes.append({})
        if stmt.init is not None:
            self.stmt(stmt.init)
        self.emit("while True:")
        self.depth += 1
        c = self.test(stmt.until, "loop condition")
        self.emit(f"if {'not ' if stmt.while_style else ''}{c}.b: break")
        self.block(stmt.body, {})
        self.depth -= 1
        self.scopes.pop()

    def _eachloop(self, stmt: EachLoop) -> None:
        recv = self.expr(stmt.receiver)
        item = self.fresh("v")
        self.emit(f"if {recv}.__class__ is not VoidV:")
        self.emit(f"    for {item} in {recv}.items:")
        self.depth += 2
        self.block(stmt.body, {stmt.param: item})
        self.depth -= 2

    def _return(self, stmt: Return) -> None:
        self.emit(f"return {self.expr(stmt.value) if stmt.value is not None else 'VOID'}")

    def _supercall(self, stmt: SuperCall) -> None:
        args = "".join(f", {self.expr(a)}" for a in stmt.args)
        target = self.module.super_target(self.owner, self.op, stmt.qualifier)
        self.emit(f"{target}(rt, obj{args})")

    # -- expressions -----------------------------------------------------

    def expr(self, e) -> str:
        """Write the evaluation of ``e``; returns a local or constant that
        holds its value."""
        return getattr(self, "_" + type(e).__name__.lower())(e)

    def assign(self, line: str, kind: type | None = None) -> str:
        t = self.fresh("t")
        self.emit(f"{t} = {line}")
        if kind is not None:
            self.known[t] = kind
        return t

    def value_const(self, value) -> str:
        if isinstance(value, BoolV):
            return "TRUE" if value.b else "FALSE"
        if isinstance(value, VoidV):
            return "VOID"
        field = value.i if isinstance(value, IntV) else value.s
        name = self.module.const(f"{type(value).__name__}({field!r})")
        self.known[name] = type(value)
        return name

    def _selfref(self, e: SelfRef) -> str:
        return self.use("me")

    def _varref(self, e: VarRef) -> str:
        return self.local(e.name)

    def _intlit(self, e: IntLit) -> str:
        return self.value_const(IntV(e.value))

    def _boollit(self, e: BoolLit) -> str:
        return "TRUE" if e.value else "FALSE"

    def _stringlit(self, e: StringLit) -> str:
        return self.value_const(StringV(e.value))

    def _voidlit(self, e: VoidLit) -> str:
        return "VOID"

    def _featurenav(self, e: FeatureNav) -> str:
        key = repr(e.feature)
        if isinstance(e.receiver, SelfRef):
            return self.assign(f"obj.slots[{key}]")
        r = self.expr(e.receiver)
        return self.assign(f"VOID if {r}.__class__ is VoidV else "
                           f"{self.use('objects')}[{r}.id].slots[{key}]")

    def _opcall(self, e: OpCall) -> str:
        recv = self.receiver(e.receiver, f"operation call {e.op} on void")
        target = "obj" if recv == "obj" else self.assign(self.target(recv))
        args = [self.expr(a) for a in e.args]
        if self.module.entries is None:
            return self.assign(f"rt.call({target}, {e.op!r}, ({''.join(a + ', ' for a in args)}))")
        how, fn = self.module.site(e.op)
        passed = f"rt, {target}{''.join(', ' + a for a in args)}"
        if how == "entry":
            return self.assign(f"{fn}({passed})")
        if how == "table":
            return self.assign(f"{fn}[{target}.class_name]({passed})")
        if fn == "container":
            return self.assign(f"VOID if {target}.container is None else "
                               f"ObjRef({target}.container[0])")
        message = args[0]
        append = f"rt.trace.append(event(NodeExecuted, ({message}.s,)))"
        if self.known.get(message) is StringV:
            self.emit(append)
        else:
            self.emit(f"if {message}.__class__ is StringV: {append}")
            self.emit(f"else: _trace({passed})")
        return "VOID"

    def _collectionop(self, e: CollectionOp) -> str:
        kind = e.op_kind
        recv = self.expr(e.receiver)
        void = f"{recv}.__class__ is VoidV"
        if kind == "isEmpty":
            return self.assign(f"VOID if {void} else FALSE if {recv}.items else TRUE")
        if kind == "size":
            return self.assign(f"VOID if {void} else IntV(len({recv}.items))")
        if kind == "first":
            return self.assign(f"VOID if {void} else {recv}.items[0] if {recv}.items else VOID")
        t = self.fresh("t")
        self.emit(f"if {void}: {t} = VOID")
        self.emit("else:")
        self.depth += 1
        if kind in ("add", "intersection"):
            arg = self.expr(e.arg)
            if kind == "add":
                self.emit(f"{t} = make_coll({recv}.kind, {recv}.items + [{arg}])")
            else:
                self.emit(f"{t} = _intersection({recv}, {arg})")
        else:
            self._lambda(e, recv, t)
        self.depth -= 1
        return t

    def _lambda(self, e: CollectionOp, recv: str, t: str) -> None:
        """Bind each element to the lambda's parameter in turn: collect
        gathers the values (each drops them); select and reject keep, and
        forAll and exists stop at, the elements whose test yields the Bool
        ``_HITS[kind]``."""
        kind = e.op_kind
        hit = _HITS.get(kind)
        item, out = self.fresh("v"), self.fresh("t")
        if kind != "forAll" and kind != "exists":
            self.emit(f"{out} = []")
        self.emit(f"for {item} in {recv}.items:")
        self.depth += 1
        self.scopes.append({e.lam.param: item})
        value = self.expr(e.lam.body)
        self.scopes.pop()
        if kind == "collect":
            self.emit(f"{out}.append({value})")
        elif hit is None:
            self.emit("pass")  # each: the values are dropped
        else:
            if self.known.get(value) is not BoolV:
                message = f"{kind} lambda did not yield a Bool"
                self.emit(f"if {value}.__class__ is not BoolV: "
                          f"raise EvalFault('TypeFault', {message!r})")
            test = f"{value}.b" if hit else f"not {value}.b"
            if kind in ("forAll", "exists"):
                self.emit(f"if {test}: {t} = {'TRUE' if hit else 'FALSE'}; break")
            else:
                self.emit(f"if {test}: {out}.append({item})")
        self.depth -= 1
        if kind in ("forAll", "exists"):
            self.emit(f"else: {t} = {'FALSE' if hit else 'TRUE'}")
        elif kind == "collect":
            self.emit(f"{t} = make_coll({recv}.kind, {out})")
        elif kind == "each":
            self.emit(f"{t} = VOID")
        else:
            self.emit(f"{t} = Coll({recv}.kind, {out})")

    def _typetest(self, e: TypeTest) -> str:
        classes = self.module.conforming(e.target)
        if isinstance(e.receiver, SelfRef):
            r, obj, void = "me", "obj", ""
        else:
            r = self.expr(e.receiver)
            obj, void = f"{self.use('objects')}[{r}.id]", f"{r}.__class__ is not VoidV and "
        if e.test_kind == "oclIsKindOf":
            return self.assign(f"TRUE if {void}{obj}.class_name in {classes} else FALSE", BoolV)
        self.emit(f"if {void}{obj}.class_name not in {classes}: raise _cast({obj}, {e.target!r})")
        return self.use("me") if r == "me" else r

    def _binop(self, e: BinOp) -> str:
        op = e.op
        if op in ("and", "or"):
            # unless a Bool left operand decides, the right one does
            lhs = self.expr(e.lhs)
            t = self.assign(lhs, self.known.get(lhs))
            lhs_bool = self.known.get(t) is BoolV
            guard = "" if lhs_bool else f"{t}.__class__ is BoolV and "
            self.emit(f"if {guard}{'not ' if op == 'or' else ''}{t}.b:")
            self.depth += 1
            rhs = self.expr(e.rhs)
            self.emit(f"{t} = {rhs}")
            self.depth -= 1
            if not (lhs_bool and self.known.get(rhs) is BoolV):
                self.emit(f"if {t}.__class__ is not BoolV: "
                          f"raise EvalFault('TypeFault', {op + ' expects Bool operands'!r})")
            self.known[t] = BoolV
            return t
        lhs = self.expr(e.lhs)
        rhs = self.expr(e.rhs)
        if op in ("==", "!="):
            return self.assign(f"TRUE if {lhs} {op} {rhs} else FALSE", BoolV)
        if op == "+" and not (self.known.get(lhs) is IntV and self.known.get(rhs) is IntV):
            t = self.fresh("t")
            self.emit(f"if {lhs}.__class__ is IntV and {rhs}.__class__ is IntV: "
                      f"{t} = IntV({lhs}.i + {rhs}.i)")
            self.emit(f"elif {lhs}.__class__ is StringV and {rhs}.__class__ is StringV: "
                      f"{t} = StringV({lhs}.s + {rhs}.s)")
            self.emit(f"else: raise _operands('+', {lhs}, {rhs})")
            return t
        if not (self.known.get(lhs) is IntV and self.known.get(rhs) is IntV):
            self.emit(f"if {lhs}.__class__ is not IntV or {rhs}.__class__ is not IntV: "
                      f"raise _operands({op!r}, {lhs}, {rhs})")
        a, b = f"{lhs}.i", f"{rhs}.i"
        if op in _COMPARE:
            return self.assign(f"TRUE if {a} {op} {b} else FALSE", BoolV)
        if op == "/":
            self.emit(f"if {b} == 0: raise EvalFault('DivisionByZero', 'division by zero')")
            return self.assign(f"IntV(_quotient({a}, {b}))", IntV)
        return self.assign(f"IntV({a} {op} {b})", IntV)

    def _not(self, e: Not) -> str:
        v = self.expr(e.operand)
        if self.known.get(v) is not BoolV:
            self.emit(f"if {v}.__class__ is not BoolV: "
                      f"raise EvalFault('TypeFault', 'not expects a Bool')")
        return self.assign(f"FALSE if {v}.b else TRUE", BoolV)

    def _ifexpr(self, e: IfExpr) -> str:
        t = self.fresh("t")
        self.emit(f"if {self.test(e.cond, 'if condition')}.b:")
        for branch in (e.then, e.orelse):
            self.depth += 1
            self.emit(f"{t} = {self.expr(branch)}")
            self.depth -= 1
            if branch is e.then:
                self.emit("else:")
        return t

    def _new(self, e: New) -> str:
        return self.assign(f"create_instance({self.use('model')}, {e.class_name!r})")

