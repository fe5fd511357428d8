"""Static type checking of expressions, contract rules and method bodies
against a woven class table, and the checked build pipeline that ends with it.

Checking is diagnostic-driven: problems accumulate in the context and an
error type silences cascading complaints.  Constraint rules are checked in
pure mode, where operation calls and instantiation are rejected so the
static-semantics concern stays side-effect free by construction.
"""

from __future__ import annotations

from .behavior import (
    Assign, AspectClass, AspectUnit, ExprStmt, If, Loop, MethodDef, Return, SuperCall, VarDecl,
)
from .composer import (
    ROOT_BUILTINS, ROOT_CLASS, MashupManifest, WovenModel, compose, load_manifest,
    resolve_method_conflicts, resolve_requires, validate_woven,
)
from .diagnostics import (
    CompositionError, Diagnostic, DiagnosticSink, Pos, TypecheckError, nested_too_deeply,
)
from .exprs import (
    BinOp, BoolLit, CollectionOp, EachLoop, Expr, FeatureNav, IfExpr, IntLit,
    New, Not, OpCall, SelfRef, StringLit, TypeTest, VarRef, VoidLit,
)
from .metamodel import OperationSig, feature_type
from .semtypes import BOOL, ERROR, INT, SemType, STRING, VOID, class_type, coll, is_error


def assignable(woven: WovenModel, src: SemType, dst: SemType) -> bool:
    """Value of type src may flow into a slot of type dst."""
    if is_error(src) or is_error(dst):
        return True
    if dst.kind == "class":
        if src.kind == "void":
            return True
        return src.kind == "class" and woven.conforms(src.name, dst.name)
    if dst.kind == "prim":
        return src == dst
    if dst.kind == "coll":
        return src.kind == "coll" and assignable(woven, src.elem, dst.elem)
    if dst.kind == "void":
        return src.kind == "void"
    return False


class TypeContext:
    """What checking one rule or method body needs: the woven model, the
    class of ``self``, the sink, purity, the method whose body is checked
    (None for a rule) and the variable scopes."""

    def __init__(self, woven: WovenModel, self_class: str, sink: DiagnosticSink,
                 pure: bool = False, method: MethodDef | None = None,
                 scopes: list[dict[str, SemType]] | None = None):
        self.woven = woven
        self.self_class = self_class
        self.sink = sink
        self.pure = pure
        self.method = method
        self.scopes = [{}] if scopes is None else scopes

    def lookup(self, name: str) -> SemType | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def declare(self, name: str, t: SemType, pos: Pos) -> None:
        if name in self.scopes[-1]:
            self.sink.add("DuplicateVariable", f"variable {name} already declared here", pos)
        self.scopes[-1][name] = t

    def block(self, stmts, scope: dict[str, SemType]) -> None:
        """Check ``stmts`` with ``scope`` pushed as their innermost scope."""
        self.scopes.append(scope)
        for stmt in stmts:
            _check_stmt(stmt, self)
        self.scopes.pop()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def typecheck_expr(e: Expr, ctx: TypeContext) -> SemType:
    """Return the static type of e, recording diagnostics in the context."""
    woven = ctx.woven
    if isinstance(e, SelfRef):
        return class_type(ctx.self_class)
    if isinstance(e, VarRef):
        t = ctx.lookup(e.name)
        if t is None:
            ctx.sink.add("UnknownVariable", f"unbound variable {e.name}", e.pos)
            return ERROR
        return t
    if isinstance(e, IntLit):
        return INT
    if isinstance(e, BoolLit):
        return BOOL
    if isinstance(e, StringLit):
        return STRING
    if isinstance(e, VoidLit):
        return VOID
    if isinstance(e, FeatureNav):
        rt = typecheck_expr(e.receiver, ctx)
        if is_error(rt):
            return ERROR
        if rt.kind != "class":
            ctx.sink.add(
                "BadNavigation",
                f"cannot navigate feature {e.feature} on a value of type {rt}",
                e.pos,
            )
            return ERROR
        sp = woven.feature(rt.name, e.feature)
        if sp is None:
            ctx.sink.add("UnknownFeature", f"{rt.name} has no feature {e.feature}", e.pos)
            return ERROR
        return feature_type(sp.feat)
    if isinstance(e, OpCall):
        rt = typecheck_expr(e.receiver, ctx)
        arg_types = [typecheck_expr(a, ctx) for a in e.args]
        if is_error(rt):
            return ERROR
        if rt.kind != "class":
            ctx.sink.add("BadCall", f"cannot call {e.op} on a value of type {rt}", e.pos)
            return ERROR
        if ctx.pure:
            ctx.sink.add(
                "ImpureExpression",
                f"operation call {e.op} is not allowed in a side-effect-free rule",
                e.pos,
            )
            return ERROR
        entry = woven.op_sig(rt.name, e.op)
        if entry is None:
            ctx.sink.add("UnknownOperation", f"{rt.name} has no operation {e.op}", e.pos)
            return ERROR
        sig = entry[0]
        _check_args(ctx, sig, arg_types, e.op, e.pos)
        return sig.return_type
    if isinstance(e, CollectionOp):
        return _typecheck_collection_op(e, ctx)
    if isinstance(e, EachLoop):
        ctx.sink.add(
            "BadEach", "an each block with statements must stand alone as a statement", e.pos
        )
        return VOID
    if isinstance(e, TypeTest):
        rt = typecheck_expr(e.receiver, ctx)
        if e.target != ROOT_CLASS and e.target not in woven.classes:
            ctx.sink.add("UnknownClass", f"unknown class {e.target}", e.pos)
            return ERROR
        if not is_error(rt) and rt.kind not in ("class", "void"):
            ctx.sink.add(
                "BadTypeTest", f"{e.test_kind} applies to objects, not {rt}", e.pos
            )
            return ERROR
        return BOOL if e.test_kind == "oclIsKindOf" else class_type(e.target)
    if isinstance(e, BinOp):
        return _typecheck_binop(e, ctx)
    if isinstance(e, Not):
        t = typecheck_expr(e.operand, ctx)
        if not is_error(t) and t != BOOL:
            ctx.sink.add("TypeMismatch", f"not expects Bool, found {t}", e.pos)
        return BOOL
    if isinstance(e, IfExpr):
        ct = typecheck_expr(e.cond, ctx)
        if not is_error(ct) and ct != BOOL:
            ctx.sink.add("TypeMismatch", f"if condition must be Bool, found {ct}", e.pos)
        t1 = typecheck_expr(e.then, ctx)
        t2 = typecheck_expr(e.orelse, ctx)
        # a collection of error elements (an empty one of eval_expr's scope)
        # takes the other branch's element type
        if assignable(ctx.woven, t2, t1) and not _has_error(t1):
            return t1
        if assignable(ctx.woven, t1, t2):
            return t2
        ctx.sink.add("TypeMismatch", f"if branches disagree: {t1} vs {t2}", e.pos)
        return ERROR
    if isinstance(e, New):
        if ctx.pure:
            ctx.sink.add(
                "ImpureExpression", "new is not allowed in a side-effect-free rule", e.pos
            )
            return ERROR
        wc = woven.classes.get(e.class_name)
        if wc is None:
            ctx.sink.add("UnknownClass", f"unknown class {e.class_name}", e.pos)
            return ERROR
        if wc.is_abstract:
            ctx.sink.add(
                "AbstractInstantiation", f"cannot instantiate abstract class {e.class_name}", e.pos
            )
        return class_type(e.class_name)
    raise AssertionError(f"unhandled expression node {type(e).__name__}")


def _check_args(ctx: TypeContext, sig: OperationSig, arg_types, op: str, pos: Pos) -> None:
    if len(arg_types) != len(sig.params):
        ctx.sink.add(
            "ArityMismatch",
            f"{op} expects {len(sig.params)} argument(s), found {len(arg_types)}",
            pos,
        )
        return
    for param, at in zip(sig.params, arg_types):
        if not assignable(ctx.woven, at, param.type):
            ctx.sink.add(
                "TypeMismatch",
                f"argument {param.name} of {op} expects {param.type}, found {at}",
                pos,
            )


def _typecheck_collection_op(e: CollectionOp, ctx: TypeContext) -> SemType:
    rt = typecheck_expr(e.receiver, ctx)
    if is_error(rt):
        return ERROR
    if rt.kind != "coll":
        ctx.sink.add(
            "TypeMismatch", f"{e.op_kind} expects a collection receiver, found {rt}", e.pos
        )
        return ERROR
    elem = rt.elem
    if e.lam is not None:
        ctx.scopes.append({e.lam.param: elem})
        body_t = typecheck_expr(e.lam.body, ctx)
        ctx.scopes.pop()
        if e.op_kind == "collect":
            return coll(rt.name, body_t)
        if e.op_kind in ("select", "reject", "forAll", "exists"):
            if not is_error(body_t) and body_t != BOOL:
                ctx.sink.add(
                    "TypeMismatch", f"{e.op_kind} lambda must yield Bool, found {body_t}", e.pos
                )
            return rt if e.op_kind in ("select", "reject") else BOOL
        return VOID  # each
    if e.op_kind == "isEmpty":
        return BOOL
    if e.op_kind == "size":
        return INT
    if e.op_kind == "first":
        return elem
    if e.op_kind == "add":
        at = typecheck_expr(e.arg, ctx)
        if is_error(elem):  # no element yet: the added one gives the type
            return coll(rt.name, at)
        if not assignable(ctx.woven, at, elem):
            ctx.sink.add(
                "TypeMismatch", f"cannot add {at} to a collection of {elem}", e.pos
            )
        return rt
    # intersection; the parser gives every other operation its lambda
    at = typecheck_expr(e.arg, ctx)
    if not is_error(at):
        if at.kind != "coll" or not (
            assignable(ctx.woven, at.elem, elem) or assignable(ctx.woven, elem, at.elem)
        ):
            ctx.sink.add(
                "TypeMismatch", f"cannot intersect {rt} with {at}", e.pos
            )
    return rt


def _has_error(t: SemType) -> bool:
    return is_error(t) or (t.kind == "coll" and _has_error(t.elem))


def _typecheck_binop(e: BinOp, ctx: TypeContext) -> SemType:
    lt = typecheck_expr(e.lhs, ctx)
    rt = typecheck_expr(e.rhs, ctx)
    op = e.op
    if is_error(lt) or is_error(rt):
        return BOOL if op in ("==", "!=", "<", "<=", ">", ">=", "and", "or") else ERROR
    if op in ("and", "or"):
        for t in (lt, rt):
            if t != BOOL:
                ctx.sink.add("TypeMismatch", f"{op} expects Bool operands, found {t}", e.pos)
        return BOOL
    if op in ("==", "!="):
        comparable = (
            assignable(ctx.woven, lt, rt)
            or assignable(ctx.woven, rt, lt)
            or lt.kind == "void"
            or rt.kind == "void"
        )
        if not comparable:
            ctx.sink.add("TypeMismatch", f"cannot compare {lt} with {rt}", e.pos)
        return BOOL
    if op in ("<", "<=", ">", ">="):
        for t in (lt, rt):
            if t != INT:
                ctx.sink.add("TypeMismatch", f"{op} expects Int operands, found {t}", e.pos)
        return BOOL
    if op == "+" and lt == STRING and rt == STRING:
        return STRING
    for t in (lt, rt):
        if t != INT:
            ctx.sink.add("TypeMismatch", f"{op} expects Int operands, found {t}", e.pos)
    return INT


# ---------------------------------------------------------------------------
# Aspect units: rules and method bodies
# ---------------------------------------------------------------------------


def _inherited_sig(woven: WovenModel, class_name: str, op: str) -> OperationSig | None:
    wc = woven.classes[class_name]
    for sup in wc.linearization[1:]:
        if sup == ROOT_CLASS:
            return ROOT_BUILTINS.get(op)
        entry = woven.classes[sup].op_sigs.get(op)
        if entry is not None:
            return entry[0]
    return ROOT_BUILTINS.get(op)


def _sigs_match(a: OperationSig, b: OperationSig) -> bool:
    return (
        a.return_type == b.return_type
        and len(a.params) == len(b.params)
        and all(pa.type == pb.type for pa, pb in zip(a.params, b.params))
    )


def _typecheck_aspects(unit: AspectUnit, woven: WovenModel) -> list[Diagnostic]:
    """Check each aspect of a constraint or behavior unit in order: its
    invariants, then its conditions, both as pure rules, then its method
    bodies."""
    sink = DiagnosticSink(unit.source_unit)
    for aspect in unit.aspects:
        cls = aspect.class_name
        for inv in aspect.invariants:
            _check_rule(inv.body, f"invariant {inv.name}", inv.pos,
                        TypeContext(woven, cls, sink, pure=True))
        for conds, binds_result in ((aspect.pre_conditions, False),
                                    (aspect.post_conditions, True)):
            for cond in conds:
                entry = woven.classes[cls].op_sigs.get(cond.op_name)
                if entry is None and cond.op_name in ROOT_BUILTINS:
                    sink.add("BuiltinCondition",
                             f"{cond.name} is on root builtin {cond.op_name}, which takes no "
                             "pre or post conditions", cond.pos)
                    continue
                if entry is None:
                    sink.add("UnknownOperation",
                             f"{cond.name} refers to unknown operation {cls}.{cond.op_name}",
                             cond.pos)
                    continue
                sig = entry[0]
                scope = {p.name: p.type for p in sig.params}
                if binds_result and sig.return_type != VOID:
                    scope["result"] = sig.return_type
                _check_rule(cond.body, f"condition {cond.name}", cond.pos,
                            TypeContext(woven, cls, sink, pure=True, scopes=[scope]))
        for mdef in aspect.methods:
            _check_method(aspect, mdef, woven, sink)
    return sink.items


def _check_rule(body: Expr, what: str, pos: Pos, ctx: TypeContext) -> None:
    t = typecheck_expr(body, ctx)
    if not is_error(t) and t != BOOL:
        ctx.sink.add("NonBooleanRule", f"{what} must be Bool, found {t}", pos)


def _check_method(aspect: AspectClass, mdef: MethodDef, woven: WovenModel,
                  sink: DiagnosticSink) -> None:
    cls = aspect.class_name
    wc = woven.classes[cls]
    op = mdef.sig.name
    inherited = _inherited_sig(woven, cls, op)
    base_decl = wc.base_sig_names and op in wc.base_sig_names
    preexisting = inherited if inherited is not None else (
        wc.op_sigs[op][0] if base_decl else None
    )
    if mdef.overrides:
        if preexisting is None:
            sink.add(
                "BadOverride",
                f"method {cls}.{op} overrides nothing; use operation for a fresh one",
                mdef.pos,
            )
        elif not _sigs_match(mdef.sig, preexisting):
            sink.add(
                "OverrideMismatch",
                f"method {cls}.{op} does not match the inherited signature",
                mdef.pos,
            )
    elif preexisting is not None:
        sink.add(
            "DuplicateOperation",
            f"operation {cls}.{op} already exists; use method to override it",
            mdef.pos,
        )

    ctx = TypeContext(woven, cls, sink, method=mdef)
    ctx.block(mdef.body, {p.name: p.type for p in mdef.sig.params})


def _check_stmt(stmt, ctx: TypeContext) -> None:
    sink, woven = ctx.sink, ctx.woven
    if isinstance(stmt, VarDecl):
        if stmt.init is not None:
            it = typecheck_expr(stmt.init, ctx)
            if not assignable(woven, it, stmt.type):
                sink.add(
                    "TypeMismatch",
                    f"cannot initialize {stmt.name}: {stmt.type} with {it}",
                    stmt.pos,
                )
        ctx.declare(stmt.name, stmt.type, stmt.pos)
        return
    if isinstance(stmt, Assign):
        rt = typecheck_expr(stmt.rhs, ctx)
        if isinstance(stmt.lvalue, VarRef):
            vt = ctx.lookup(stmt.lvalue.name)
            if vt is None:
                sink.add("UnknownVariable", f"unbound variable {stmt.lvalue.name}", stmt.pos)
                return
            if not assignable(woven, rt, vt):
                sink.add(
                    "TypeMismatch", f"cannot assign {rt} to {stmt.lvalue.name}: {vt}", stmt.pos
                )
            return
        lt = typecheck_expr(stmt.lvalue, ctx)
        if not is_error(lt) and not assignable(woven, rt, lt):
            sink.add("TypeMismatch", f"cannot assign {rt} into a {lt} feature", stmt.pos)
        return
    if isinstance(stmt, ExprStmt):
        typecheck_expr(stmt.expr, ctx)
        return
    if isinstance(stmt, If):
        ct = typecheck_expr(stmt.cond, ctx)
        if not is_error(ct) and ct != BOOL:
            sink.add("TypeMismatch", f"if condition must be Bool, found {ct}", stmt.pos)
        ctx.block(stmt.then, {})
        ctx.block(stmt.orelse, {})
        return
    if isinstance(stmt, Loop):
        ctx.scopes.append({})
        if stmt.init is not None:
            _check_stmt(stmt.init, ctx)
        ct = typecheck_expr(stmt.until, ctx)
        if not is_error(ct) and ct != BOOL:
            sink.add("TypeMismatch", f"loop condition must be Bool, found {ct}", stmt.pos)
        ctx.block(stmt.body, ctx.scopes.pop())  # the body shares the loop's scope
        return
    if isinstance(stmt, EachLoop):
        rt = typecheck_expr(stmt.receiver, ctx)
        elem = ERROR
        if not is_error(rt):
            if rt.kind != "coll":
                sink.add("TypeMismatch", f"each expects a collection, found {rt}", stmt.pos)
            else:
                elem = rt.elem
        ctx.block(stmt.body, {stmt.param: elem})
        return
    if isinstance(stmt, Return):
        want = ctx.method.sig.return_type
        if stmt.value is None:
            if want != VOID:
                sink.add("TypeMismatch", f"return needs a value of type {want}", stmt.pos)
            return
        vt = typecheck_expr(stmt.value, ctx)
        if want == VOID:
            if vt != VOID:
                sink.add("TypeMismatch", "operation returns Void; drop the return value",
                         stmt.pos)
        elif not assignable(woven, vt, want):
            sink.add("TypeMismatch", f"return type {want} cannot accept {vt}", stmt.pos)
        return
    if isinstance(stmt, SuperCall):
        _check_super(stmt, ctx)
        return
    raise AssertionError(f"unhandled statement node {type(stmt).__name__}")


def _check_super(stmt: SuperCall, ctx: TypeContext) -> None:
    """``super[Q](...)`` calls Q's first definition of the operation, and a
    plain ``super(...)`` the next definition after this class in the
    linearization of the receiver's class; in every class inheriting this
    method, that next definition must take the same parameters."""
    sink, woven, cls, mdef = ctx.sink, ctx.woven, ctx.self_class, ctx.method
    op = mdef.sig.name
    wc = woven.classes[cls]
    target = mdef.sig
    if stmt.qualifier is not None:
        if stmt.qualifier not in wc.supertypes:
            sink.add(
                "BadSuper",
                f"super[{stmt.qualifier}] must name a direct supertype of {cls}",
                stmt.pos,
            )
            return
        definers = woven.classes[stmt.qualifier].raw_definers.get(op)
        if not definers:
            sink.add(
                "BadSuper",
                f"super[{stmt.qualifier}]: {stmt.qualifier} provides no {op}",
                stmt.pos,
            )
            return
        target = definers[0][1].sig
    elif all(owner == cls for owner, _m in wc.raw_definers[op]):
        sink.add("BadSuper", f"{cls}.{op} has no inherited definition to call", stmt.pos)
        return
    else:
        params = [p.type for p in target.params]
        for sub in woven.classes.values():
            if cls not in sub.linearization:
                continue
            chain = sub.raw_definers[op]
            owner, nxt = chain[[o for o, _m in chain].index(cls) + 1]
            if [p.type for p in nxt.sig.params] != params:
                sink.add(
                    "BadSuper",
                    f"super in {cls}.{op} reaches {owner}.{op} in {sub.name}, "
                    "whose parameters differ",
                    stmt.pos,
                )
                return
    arg_types = [typecheck_expr(a, ctx) for a in stmt.args]
    _check_args(ctx, target, arg_types, f"super {op}", stmt.pos)


def typecheck_units(units, woven: WovenModel) -> list[Diagnostic]:
    """Check every constraint and behavior unit of a composition, in unit
    order: their rules and method bodies against the woven model."""
    out: list[Diagnostic] = []
    for unit in units:
        if not isinstance(unit, AspectUnit):
            continue
        try:
            out.extend(_typecheck_aspects(unit, woven))
        except RecursionError:
            raise nested_too_deeply(unit.source_unit) from None
    return out


# ---------------------------------------------------------------------------
# The checked build pipeline
# ---------------------------------------------------------------------------


def build_units(units, package: str | None = None) -> WovenModel:
    """Compose parsed units and demand a clean language.

    Composition and validation problems (clashes, dangling names, ambiguous
    methods) raise CompositionError; only once those are clean are the
    constraint and behavior units type checked, and type problems raise
    TypecheckError.
    """
    woven = compose(units, package)
    problems = validate_woven(woven)
    for wc in woven.classes.values():
        problems.extend(resolve_method_conflicts(wc, woven))
    if problems:
        raise CompositionError(problems)
    problems = typecheck_units(units, woven)
    if problems:
        raise TypecheckError(problems)
    return woven


def build(manifest_path: str) -> tuple[MashupManifest, list, WovenModel]:
    """Load a manifest, parse its units and build them (see build_units)."""
    manifest = load_manifest(manifest_path)
    units = resolve_requires(manifest)
    return manifest, units, build_units(units, manifest.package)
