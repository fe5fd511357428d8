"""Compile a woven model's method bodies, contracts and dispatch to Python,
once.

``compiled(woven)`` writes one Python module for a woven model, runs
``compile()`` on it and caches the result on the model; ``compose`` never
changes a woven model afterwards, so the cache is never stale.  The module
holds one function per (defining class, method) body, per invariant and per
pre and post clause, one entry per distinct (operation, body, contracts),
and ``DISPATCH``, the one table of what each class runs for each operation
it answers: its entry, else the root builtin (``_container``, ``_trace``,
``_fault``), else, for an operation declared without a body, a function
raising ``NoSuchMethod``.  Call sites, ``invoke`` and evaluated expressions
all read it.  Method tables, renamings, ``super`` targets and the slot
plans of written features are resolved while writing.

An entry is what a call costs: it traces the call (``OpEnter``, then
``OpExit`` with the rendered result) and, under the interpreter's policy
(``rt.checks``, ``rt.full``), checks the precondition groups, runs the
body, and checks the postconditions and the receiver's invariants, each
rule unrolled with the message and fault kind the interpreter gives it.  A
call site names the function its operation's row gives when every class
has the same one, else a constant table of them by the receiver's class.
``container`` and ``trace`` run inline where every class runs the builtin
(a ``trace`` message other than a String falls back to ``_trace``, which
faults).

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
written through the plan of the target's class (``PLANS``).  A
collection is a value that no write changes (a write stores a new one in
its slot), so a slot's collection is read, and an ``each`` statement walks
it, without a copy.

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
    """The compiled module of one woven model: its ``DISPATCH`` table (class
    name -> operation -> the function it runs); each invariant
    declaration's rule by identity; and the expressions compiled since, by
    (expression, names).

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
    code = compiled(woven)
    cache = code.expressions
    key = (e, tuple(names))
    if key not in cache:
        module = _Module(woven, code.dispatch)
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
        NodeExecuted, OpEnter, OpExit, _container, _fault, _trace, add_slot, create_instance,
        set_slot,
    )

    return {
        "BoolV": BoolV, "IntV": IntV, "StringV": StringV, "VoidV": VoidV, "ObjRef": ObjRef,
        "Coll": Coll, "TRUE": TRUE, "FALSE": FALSE, "VOID": VOID_VALUE,
        "EvalFault": EvalFault, "make_coll": make_coll, "render_value": render_value,
        "set_slot": set_slot, "add_slot": add_slot, "create_instance": create_instance,
        "_operands": _operands, "_cast": _cast, "_intersection": _intersection,
        "_quotient": _quotient, "_no_method": _no_method,
        "_container": _container, "_trace": _trace, "_fault": _fault,
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


def _table(names: dict[str, str]) -> str:
    """The source of a dict from each key, as a literal, to its source."""
    return "{" + ", ".join(f"{key!r}: {value}" for key, value in names.items()) + "}"


def _unless(test: str, error: str, kind: str, rule_name: str) -> str:
    """A line raising the contract violation ``error`` unless ``test``,
    which is a call or a parenthesized expression; ``rule_name`` is the
    source of the violated rule's name."""
    return f"if not {test}: raise rt.violation({error!r}, {kind!r}, {rule_name}, obj)"


class _Module:
    """Writes the source of one module: functions, then the constants and
    tables they use.  A model's module has an entry per dispatched
    operation, and its call sites reach them; an expression's module is
    given its model's ``dispatch`` and calls through that table."""

    def __init__(self, woven, dispatch: dict | None = None):
        self.woven = woven
        self.dispatch = dispatch
        self.functions: dict[str, str] = {}  # name -> source
        # name -> (unit, position, what) of the DSL code a function runs
        self.origins: dict[str, tuple] = {}
        self.constants: dict[str, str] = {}  # source text -> name
        self.methods: dict[tuple[str, str], str] = {}  # (owner, op) -> name
        # (id(decl), binds result, tests a Bool) -> name
        self.rules: dict[tuple[int, bool, bool], str] = {}
        self.entries: dict[tuple, str] = {}  # see entry
        # class name -> operation -> the function it runs (see build)
        self.rows: dict[str, dict[str, str]] = {}
        self.pending: list[tuple[str, str, object]] = []

    def const(self, text: str) -> str:
        """The name of a module constant with the source ``text``."""
        if text not in self.constants:
            self.constants[text] = f"c{len(self.constants)}"
        return self.constants[text]

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
        woven, inv_rules = self.woven, {}
        for cname, wc in woven.classes.items():
            # an entry wins over a root builtin, a builtin over a body-less operation
            self.rows[cname] = row = {op: self.entry(wc, op) for op in wc.method_table}
            for op in ROOT_BUILTINS:
                row.setdefault(op, f"_{op}")
            for op in wc.op_sigs:
                if op not in row:
                    row[op] = self.const(f"_no_method({op!r})")
            for _owner, inv in wc.flat_invariants:
                inv_rules[id(inv)] = (inv, self.decl_rule(inv))
        while self.pending:
            self._method(*self.pending.pop())
        dispatch = _table({cname: _table(row) for cname, row in self.rows.items()})
        namespace = self.load(f"<mashup {woven.package}>", f"DISPATCH = {dispatch}")
        return CompiledModel(namespace, inv_rules, self.source)

    def load(self, filename: str, tables: str) -> dict:
        """Compile and run the module, one function at a time, then its
        constants and tables; returns its namespace.  A function nested
        deeper than Python's compiler takes (100 indentation levels, 20
        nested loops) is a syntax error at the DSL code it runs."""
        tail = "\n\n".join([f"{name} = {text}" for text, name in self.constants.items()]
                           + [tables])
        self.source = "\n\n".join([*self.functions.values(), tail]) + "\n"
        namespace = {**_globals(self.woven), "DISPATCH": self.dispatch}
        for name, source in self.functions.items():
            try:
                code = compile(source, filename, "exec")
            except (SyntaxError, RecursionError):
                unit, pos, what = self.origins.get(name, ("<expr>", NOPOS, "expression"))
                raise syntax_error(f"{what} is nested too deeply to compile", unit, pos) from None
            exec(code, namespace)
        exec(compile(tail, filename, "exec"), namespace)
        return namespace

    def entry(self, wc, op: str) -> str:
        """The entry of ``op`` on class ``wc``: one function per distinct
        (operation, body, contracts).  It traces the call and, under the
        interpreter's policy, checks the precondition groups (some group
        must hold all its rules), then runs the body, then checks the
        postconditions and (``full``) the class's invariants."""
        owner, mdef = wc.method_table[op][0]
        body = self.method(owner, mdef)
        groups = tuple(tuple((c.name, self.decl_rule(c, self._params(o, op), test=True))
                             for c in clauses) for o, clauses in wc.flat_pre.get(op, ()))
        post = tuple((c.name, self.decl_rule(c, self._params(o, op), True, True))
                     for o, c in wc.flat_post.get(op, ()))
        invs = tuple((inv.name, self.decl_rule(inv, test=True)) for _o, inv in wc.flat_invariants)
        key = (op, body, groups, post, invs)
        if key not in self.entries:
            self.entries[key] = name = f"e{len(self.entries)}"
            self._entry(name, len(mdef.sig.params), *key)
        return self.entries[key]

    def _entry(self, name: str, arity: int, op: str, body: str, groups, post, invs) -> None:
        params = "".join(f", v{i}" for i in range(arity))
        call = f"{body}(rt, obj{params})"
        checked = []
        if groups:
            holds = [" and ".join(f"{r}(rt, obj{params})" for _n, r in group) for group in groups]
            # a violation names the first group's first failing rule: that
            # group stopped there, and rules are pure, so the names' tests
            # repeat only evaluations already made
            *held, (last, _r) = groups[0]
            failed = "".join(f"{n!r} if not {r}(rt, obj{params}) else " for n, r in held)
            checked.append(_unless(f"({' or '.join(holds)})", "PreconditionViolation", "pre",
                                   failed + repr(last)))
        checked.append(f"result = {call}")
        checked += [_unless(f"{r}(rt, obj, result{params})", "PostconditionViolation", "post",
                            repr(rule_name)) for rule_name, r in post]
        if invs:
            checked.append("if rt.full:")
            checked += ["    " + _unless(f"{r}(rt, obj)", "InvariantViolation", "inv",
                                         repr(rule_name)) for rule_name, r in invs]
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

    def site(self, op: str, recv: str) -> str | None:
        """The function a call of ``op`` on ``recv`` runs, read from the
        rows (see ``callee``); None for ``container`` or ``trace`` where
        every class runs the builtin, which the call site then inlines."""
        targets = {cname: row[op] for cname, row in self.rows.items() if op in row}
        if op in _INLINE and set(targets.values()) <= {f"_{op}"}:
            return None
        return self.callee(targets, recv)

    def callee(self, targets: dict[str, str], recv: str) -> str:
        """Given the function each class runs, the one a call on ``recv``
        runs: its name when every class runs the same one, else a constant
        table of them indexed by ``recv``'s class."""
        if len(set(targets.values())) == 1:
            return next(iter(targets.values()))
        return f"{self.const(_table(targets))}[{recv}.class_name]"

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
        """The function a ``super`` in ``owner``'s ``op`` calls (see
        ``callee``)."""
        classes = self.woven.classes
        if qualifier is not None:
            return self.method(*classes[qualifier].raw_definers[op][0])
        targets = {}
        for cname, wc in classes.items():
            chain = wc.raw_definers.get(op, ())
            owners = [o for o, _m in chain]
            if owner in owners:
                targets[cname] = self.method(*chain[owners.index(owner) + 1])
        return self.callee(targets, "obj")

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
        target, sp, plan = self.written(recv, lv.feature)
        fallback = ""
        if sp is not None and sp.prim is not None and not sp.many:
            # a single-valued attribute: stored inline when its class is the
            # plan's, else set_slot's check faults
            store = f"{target}.slots[{lv.feature!r}] = {value}"
            if self.known.get(value) is sp.prim:
                self.emit(store)
                return
            self.emit(f"if {value}.__class__ is {sp.prim.__name__}: {store}")
            fallback = "else: "
        self.emit(f"{fallback}set_slot({self.use('model')}, {target}, {plan}, {value})")

    def _exprstmt(self, stmt: ExprStmt) -> None:
        e = stmt.expr
        # statement-position add on a feature is the EMOF element-add
        if (isinstance(e, CollectionOp) and e.op_kind == "add"
                and isinstance(e.receiver, FeatureNav)):
            nav = e.receiver
            recv = self.receiver(nav.receiver, f"cannot add to feature {nav.feature} on void")
            value = self.expr(e.arg)
            target, _sp, plan = self.written(recv, nav.feature)
            self.emit(f"add_slot({self.use('model')}, {target}, {plan}, {value})")
            return
        self.expr(e)

    def target(self, recv: str) -> str:
        """The object a receiver checked by ``receiver`` refers to."""
        return recv if recv == "obj" else f"{self.use('objects')}[{recv}.id]"

    def written(self, recv: str, feature: str):
        """The object a write of ``feature`` through ``recv`` changes, the
        one slot plan of every feature of that name (None when classes
        declare several), and the plan the write goes through: that plan's
        constant, else the plan of the object's class."""
        plans = {wc.slots[feature] for wc in self.module.woven.classes.values()
                 if feature in wc.slots}
        if len(plans) == 1:
            sp = plans.pop()
            return self.target(recv), sp, self.module.const(f"PLANS[{sp.owner!r}][{feature!r}]")
        target = recv if recv == "obj" else self.assign(self.target(recv))
        return target, None, f"PLANS[{target}.class_name][{feature!r}]"

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
        passed = f"rt, {target}{''.join(', ' + a for a in args)}"
        if self.module.dispatch is not None:  # an expression: its model's table
            return self.assign(f"DISPATCH[{target}.class_name][{e.op!r}]({passed})")
        fn = self.module.site(e.op, target)
        if fn is not None:
            return self.assign(f"{fn}({passed})")
        if e.op == "container":
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

