"""Execution engine: object graphs conforming to a woven model, the EMOF
assignment semantics, dispatch with contract enforcement, and persistence.

Method bodies, contract rules and dispatch run as Python: ``codegen``
compiles a woven model once, on its first ``Interpreter``, and every later
run of the model reuses that code.  Every call runs what its ``DISPATCH``
table names: a generated entry, which traces the call and checks its
contracts, or a root builtin defined here.  The interpreter holds the
policy and the trace the entries read and write; each trace event is a
named-tuple record, equal only to an event of its own class.

Assignment keeps both ends of bidirectional associations in sync and keeps
containment a forest: attaching an object removes it from its previous
container first, and an attachment that would close a containment cycle is
refused before anything is mutated.  ``set_slot`` and ``add_slot`` are
``set_feature`` and ``add_to_feature`` on a resolved object and slot plan,
the only writes compiled code makes; a plain reference (no opposite, no
containment) has no upkeep to run.

Collections are values: every write of a many-valued slot stores a new
``Coll`` in it and no code changes a collection's ``items``, so a slot's
collection is read, held in a variable and shared by a clone without a
copy, and ``clone`` copies only the objects; ``create_instance`` and a
load start every object from its class's ``WovenClass.defaults``, whose
empty collections all its objects share.  The guarantees above hold
for writes through ``create_instance``, ``set_feature``, ``add_to_feature``
and ``remove_from_feature``; writing ``Obj.slots`` or a collection's
``items`` in place voids them, a clone's independence included, and such
a write to a clean model (below) is saved unchecked.

Models serialize to JSON with objects ordered by id and slot keys sorted,
so output is byte-stable.  Slots holding their type default (void single
references, empty collections, 0 / false / "") are omitted.  The canonical
text is what ``json.dumps(doc, indent=2, sort_keys=True)`` would give, but
``save_model`` writes it straight from the objects: strings go through
json's C string encoder and the indented layout is assembled here, because
``json.dumps`` with an indent runs CPython's pure-Python encoder.

Creating, assigning, checking, loading and saving read one table: the slot
plans that ``compose`` settles for every woven class (bounds, collection
kind, default, value class or conforming target classes, opposite,
containment).  A document is checked once, as it is loaded: each slot is
checked against its plan as it is decoded, and the link and forest checks
of ``conformance_check`` run once after; only if any of that fails does
``conformance_check`` run in full, to report.  A loaded model is
``clean`` until something writes it, and ``save_model`` checks only a
model that is not clean.  The conformance check walks each object against
its class's plans and formats a message only for what fails.

The whole-model operations run with CPython's cyclic collector paused
(``_gc_paused``): ``load_model``, ``check_model``, ``conformance_check``,
``save_model``, ``ModelInstance.clone`` and ``Interpreter.invoke``, the way
in from outside.  Each allocates containers by the thousand (an object, its
slot dict, its references and collections), so with the collector on a load
of a few thousand objects starts dozens of collections, and the older
generations' passes traverse the model being built.  None of them can find
garbage: a slot holds ``ObjRef`` ids, never ``Obj`` objects, no object
points back at its model or interpreter, and every value is an immutable
tree of atoms, so nothing these operations make or drop is on a reference
cycle, and reference counting frees all they drop.  The first compile of a
woven model, in its first ``Interpreter``, does leave cycles (once) and is
not paused; nor is the one-element API (``create_instance``,
``set_feature``, ``add_to_feature``, ``remove_from_feature``,
``eval_expr``), each call of which allocates little.  What an operation
made is scanned by the first collection after it, as the caller holds it.

A model instance and the interpreter running it belong to one thread at a
time; the woven model they reference is shared read-only, but for the
compiled code its first interpreter caches on it (threads that make first
interpreters at once may each compile it; any of the equal results
serves).  Independent instances may execute concurrently.  The collector's
flag is process-wide: a paused operation turns it off only if it was on,
and on again when it returns or raises, so each operation leaves the state
it found, a nested one included.  An operation in one thread pauses
collection for all threads while it runs, and one that ends first may end
the pause of another still running, which then runs with the collector on.
"""

from __future__ import annotations

import gc
import json
from collections import namedtuple
from functools import wraps

from .codegen import _no_method, compile_expr, compiled
from .composer import ROOT_BUILTINS, ROOT_CLASS, SlotPlan, WovenModel
from .contracts import InvariantDecl
from .diagnostics import (
    ContractViolation, Diagnostic, DiagnosticSink, EvalFault, Record, TypecheckError,
    UnitParseError,
)
from .exprs import (
    Coll, ObjRef, StringV, Value, VoidV, BoolV, IntV, FALSE, TRUE, VOID_VALUE, make_coll,
    render_value, type_default,
)
from .metamodel import Attribute, Reference, feature_type
from .semtypes import BOOL, ERROR, INT, STRING, VOID, SemType, class_type, coll, is_error
from .typecheck import TypeContext, assignable, typecheck_expr

POLICY_OFF = "off"
POLICY_PREPOST = "prepost"
POLICY_FULL = "full"


def _gc_paused(op):
    """``op`` run with CPython's cyclic collector paused, and enabled again
    however ``op`` ends; where the collector is already off, ``op`` runs as
    it is.  See the module docstring for why this is sound."""

    @wraps(op)
    def run(*args, **kwargs):
        if not gc.isenabled():
            return op(*args, **kwargs)
        gc.disable()
        try:
            return op(*args, **kwargs)
        finally:
            gc.enable()

    return run


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

# The generated code builds an event as ``tuple.__new__(cls, fields)``, which
# skips the keyword-taking constructor.


class OpEnter(Record, namedtuple("OpEnter", "obj_id op")):
    __slots__ = ()

    def render(self) -> str:
        return f"OpEnter\t{self.obj_id}.{self.op}"


class OpExit(Record, namedtuple("OpExit", "obj_id op result")):
    __slots__ = ()

    def render(self) -> str:
        return f"OpExit\t{self.obj_id}.{self.op}\t{self.result}"


class ContractViolationEvent(Record, namedtuple("ContractViolationEvent", "kind name obj_id")):
    __slots__ = ()  # kind: 'pre' | 'post' | 'inv'

    def render(self) -> str:
        return f"ContractViolation\t{self.kind} {self.name} @ {self.obj_id}"


class NodeExecuted(Record, namedtuple("NodeExecuted", "label")):
    __slots__ = ()

    def render(self) -> str:
        return f"NodeExecuted\t{self.label}"


TraceEvent = OpEnter | OpExit | ContractViolationEvent | NodeExecuted


# ---------------------------------------------------------------------------
# Objects and model instances
# ---------------------------------------------------------------------------


class Obj:
    __slots__ = ("id", "class_name", "slots", "container")

    def __init__(self, oid: str, class_name: str, slots: dict[str, Value] | None = None,
                 container: tuple[str, str] | None = None):
        self.id = oid
        self.class_name = class_name
        self.slots: dict[str, Value] = {} if slots is None else slots
        self.container = container  # (container id, feature)

    def __repr__(self) -> str:
        return f"Obj({self.id}:{self.class_name})"


def default_value(feat: Attribute | Reference) -> Value:
    """The type default of a slot: a fresh empty collection or a shared scalar."""
    return type_default(feature_type(feat))


class ModelInstance:
    """An object graph conforming to one woven model.

    ``clean`` records that the model passed the conformance check and that
    nothing wrote it since: a load and a checked save set it, and every
    write through the model API, an operation run from outside and an
    impure evaluated expression clear it.
    """

    def __init__(self, woven: WovenModel):
        self.woven = woven
        self.objects: dict[str, Obj] = {}
        self.roots: list[str] = []
        self._next_id = 1
        self.clean = False

    def obj(self, oid: str) -> Obj:
        try:
            return self.objects[oid]
        except KeyError:
            raise EvalFault("UnknownObject", f"no object with id {oid}") from None

    def resolve(self, ref) -> Obj:
        if isinstance(ref, Obj):
            return ref
        if isinstance(ref, ObjRef):
            return self.obj(ref.id)
        return self.obj(ref)

    def fresh_id(self) -> str:
        while f"o{self._next_id}" in self.objects:
            self._next_id += 1
        oid = f"o{self._next_id}"
        self._next_id += 1
        return oid

    def _register(self, obj: Obj) -> None:
        self.clean = False
        self.objects[obj.id] = obj
        self.roots.append(obj.id)

    def _roots_add(self, oid: str) -> None:
        if oid not in self.roots:
            self.roots.append(oid)

    def _roots_remove(self, oid: str) -> None:
        if oid in self.roots:
            self.roots.remove(oid)

    @_gc_paused
    def clone(self) -> "ModelInstance":
        out = ModelInstance(self.woven)
        out._next_id = self._next_id
        out.clean = self.clean
        out.roots = list(self.roots)
        out.objects = {oid: Obj(oid, obj.class_name, dict(obj.slots), obj.container)
                       for oid, obj in self.objects.items()}
        return out

    def fingerprint(self) -> str:
        parts = []
        for oid in sorted(self.objects):
            obj = self.objects[oid]
            slots = ";".join(f"{k}={render_value(obj.slots[k])}" for k in sorted(obj.slots))
            parts.append(f"{oid}:{obj.class_name}[{slots}]@{obj.container}")
        return "|".join(parts) + "//" + ",".join(self.roots)


def create_instance(model: ModelInstance, class_name: str) -> ObjRef:
    """Factory: a fresh object with every slot at its type default."""
    wc = model.woven.classes.get(class_name)
    if wc is None:
        raise EvalFault("UnknownClass", f"unknown class {class_name}")
    if wc.is_abstract:
        raise EvalFault("AbstractInstantiation", f"class {class_name} is abstract")
    obj = Obj(model.fresh_id(), class_name, dict(wc.defaults))
    model._register(obj)
    return ObjRef(obj.id)


# ---------------------------------------------------------------------------
# EMOF assignment semantics
# ---------------------------------------------------------------------------


def _slot(model: ModelInstance, obj: Obj, feature: str) -> SlotPlan:
    wc = model.woven.classes.get(obj.class_name)
    if wc is None or feature not in wc.slots:
        raise EvalFault("TypeFault", f"{obj.class_name} has no feature {feature}")
    return wc.slots[feature]


def _check_prim(sp: SlotPlan, value: Value) -> None:
    if not isinstance(value, sp.prim):
        raise EvalFault(
            "TypeFault", f"attribute {sp.name} expects {sp.feat.type}, got {render_value(value)}"
        )


def _check_target(model: ModelInstance, sp: SlotPlan, value: Value) -> None:
    if not isinstance(value, ObjRef):
        raise EvalFault(
            "TypeFault", f"reference {sp.name} expects an object, got {render_value(value)}"
        )
    target = model.obj(value.id)
    if sp.targets is not None and target.class_name not in sp.targets:
        raise EvalFault(
            "TypeFault",
            f"reference {sp.name} expects {sp.feat.target}, got {target.class_name}",
        )


def _check_containment_ok(model: ModelInstance, parent: Obj, child: ObjRef) -> None:
    cur: Obj | None = parent
    while cur is not None:
        if cur.id == child.id:
            raise EvalFault(
                "ContainmentCycle",
                f"attaching {child.id} under {parent.id} would close a containment cycle",
            )
        cur = model.obj(cur.container[0]) if cur.container else None


def _check_cycle_for_link(model: ModelInstance, src: Obj, sp: SlotPlan, tgt: ObjRef) -> None:
    """Refuse a link that would close a containment cycle, looking through
    either end of the association (assigning the child side of a containment
    pair must be guarded too)."""
    if sp.containment:
        _check_containment_ok(model, src, tgt)
        return
    if sp.opposite is not None:
        t_obj = model.obj(tgt.id)
        o_sp = model.woven.classes[t_obj.class_name].slots.get(sp.opposite)
        if o_sp is not None and o_sp.containment:
            _check_containment_ok(model, t_obj, ObjRef(src.id))


def _detach(model: ModelInstance, obj: Obj) -> None:
    if obj.container is None:
        return
    pid, fname = obj.container
    parent = model.obj(pid)
    _remove_link(model, parent, _slot(model, parent, fname), ObjRef(obj.id))


def _without(coll: Coll, x: Value) -> Coll:
    """``coll`` less its first ``x``, found in one scan (``coll`` if none)."""
    try:
        i = coll.items.index(x)
    except ValueError:
        return coll
    return Coll(coll.kind, coll.items[:i] + coll.items[i + 1:])


def _remove_link(model: ModelInstance, src: Obj, sp: SlotPlan, tgt: ObjRef,
                 sync: bool = True) -> None:
    slot = src.slots[sp.name]
    if sp.many:
        src.slots[sp.name] = _without(slot, tgt)
        if src.slots[sp.name] is slot:  # not linked: nothing to undo
            return
    elif slot == tgt:
        src.slots[sp.name] = VOID_VALUE
    _unlinked(model, src, sp, tgt, sync)


def _unlinked(model: ModelInstance, src: Obj, sp: SlotPlan, tgt: ObjRef, sync=True) -> None:
    """Container, roots and (with ``sync``) opposite once ``tgt`` left ``src``."""
    if sp.containment:
        t_obj = model.obj(tgt.id)
        if t_obj.container == (src.id, sp.name):
            t_obj.container = None
            model._roots_add(tgt.id)
    if sync and sp.opposite:
        t_obj = model.obj(tgt.id)
        _remove_link(model, t_obj, _slot(model, t_obj, sp.opposite), ObjRef(src.id), sync=False)


def _add_link(model: ModelInstance, src: Obj, sp: SlotPlan, tgt: ObjRef,
              sync: bool = True) -> None:
    if sp.containment:  # first, so that re-adding a child moves it to the end
        _detach(model, model.obj(tgt.id))
    slot = src.slots[sp.name]
    if sp.many:
        if tgt not in slot.items:
            src.slots[sp.name] = Coll(slot.kind, slot.items + [tgt])
    else:
        if isinstance(slot, ObjRef) and slot != tgt:
            _remove_link(model, src, sp, slot)
        src.slots[sp.name] = tgt
    _linked(model, src, sp, tgt, sync)


def _linked(model: ModelInstance, src: Obj, sp: SlotPlan, tgt: ObjRef, sync=True) -> None:
    """Container, roots and (with ``sync``) opposite once ``tgt`` joined ``src``."""
    if sp.containment:
        model.obj(tgt.id).container = (src.id, sp.name)
        model._roots_remove(tgt.id)
    if sync and sp.opposite:
        t_obj = model.obj(tgt.id)
        _add_link(model, t_obj, _slot(model, t_obj, sp.opposite), ObjRef(src.id), sync=False)


def set_feature(model: ModelInstance, obj, feature: str, value: Value) -> None:
    """Whole-slot assignment with bidirectional and containment upkeep."""
    obj = model.resolve(obj)
    set_slot(model, obj, _slot(model, obj, feature), value)


def set_slot(model: ModelInstance, obj: Obj, sp: SlotPlan, value: Value) -> None:
    """``set_feature`` on an object and the plan of one of its slots, the
    write compiled code makes once it resolved the plan."""
    model.clean = False
    feature = sp.name
    if sp.prim is not None:
        if sp.many:
            if not isinstance(value, Coll):
                raise EvalFault("TypeFault", f"attribute {feature} expects a collection")
            for x in value.items:
                _check_prim(sp, x)
            obj.slots[feature] = make_coll(sp.kind, value.items)
        else:
            _check_prim(sp, value)
            obj.slots[feature] = value
        return
    if sp.many:
        if not isinstance(value, Coll):
            raise EvalFault("TypeFault", f"reference {feature} expects a collection")
        new = make_coll(sp.kind, value.items)
        for x in new.items:
            _check_target(model, sp, x)
        if sp.opposite is None and not sp.containment:  # a plain reference keeps no upkeep
            obj.slots[feature] = new
            return
        for x in new.items:
            _check_cycle_for_link(model, obj, sp, x)
        # one slot write; each old and new element gets its own upkeep
        for x in obj.slots[feature].items:
            _unlinked(model, obj, sp, x)
        for x in new.items if sp.containment else ():
            _detach(model, model.obj(x.id))
        obj.slots[feature] = new
        for x in new.items:
            _linked(model, obj, sp, x)
        return
    if isinstance(value, VoidV):
        old = obj.slots[feature]
        if isinstance(old, ObjRef):
            _remove_link(model, obj, sp, old)
        obj.slots[feature] = VOID_VALUE
        return
    _check_target(model, sp, value)
    _check_cycle_for_link(model, obj, sp, value)
    if obj.slots[feature] == value:
        return
    old = obj.slots[feature]
    if isinstance(old, ObjRef):
        _remove_link(model, obj, sp, old)
    _add_link(model, obj, sp, value)


def add_to_feature(model: ModelInstance, obj, feature: str, value: Value) -> None:
    """Element-wise add; duplicates on unique collections are a no-op."""
    obj = model.resolve(obj)
    add_slot(model, obj, _slot(model, obj, feature), value)


def add_slot(model: ModelInstance, obj: Obj, sp: SlotPlan, value: Value) -> None:
    """``add_to_feature`` on an object and the plan of one of its slots."""
    model.clean = False
    feature = sp.name
    if sp.prim is not None:
        if not sp.many:
            raise EvalFault("TypeFault", f"cannot add to single-valued attribute {feature}")
        _check_prim(sp, value)
        obj.slots[feature] = Coll(sp.kind, obj.slots[feature].items + [value])
        return
    if sp.many:
        _check_target(model, sp, value)
        _check_cycle_for_link(model, obj, sp, value)
        _add_link(model, obj, sp, value)
        return
    if not isinstance(obj.slots[feature], VoidV):
        raise EvalFault(
            "UpperBoundExceeded", f"feature {feature} of {obj.id} already holds a value"
        )
    set_slot(model, obj, sp, value)


def remove_from_feature(model: ModelInstance, obj, feature: str, value: Value) -> None:
    """Element-wise removal; absent elements are a no-op."""
    obj = model.resolve(obj)
    sp = _slot(model, obj, feature)
    model.clean = False
    if sp.prim is not None:
        if not sp.many:
            raise EvalFault("TypeFault", f"cannot remove from single-valued attribute {feature}")
        obj.slots[feature] = _without(obj.slots[feature], value)
        return
    if not isinstance(value, ObjRef):
        return
    if sp.many or obj.slots[feature] == value:
        _remove_link(model, obj, sp, value)


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------


class Interpreter:
    """One run: the model, its contract policy and the event trace.

    Operation calls run in the model's compiled module
    (``codegen.compiled``), written and compiled when the first interpreter
    of a woven model is made and kept for every later one.  Dispatch and
    contracts live there: its ``DISPATCH`` table gives, per class, the
    function each operation runs (a generated entry, a root builtin, or a
    ``NoSuchMethod`` for an operation declared without a body), and an
    entry traces the call and checks its contracts around the body.  The
    entries read the policy from ``checks`` (pre- and postconditions) and
    ``full`` (invariants too).
    :meth:`invoke`, the way in from outside the program, reads the same
    table as call sites and evaluated expressions.

    The model's woven model must come from ``build_units``, or from
    ``compose`` with ``validate_woven``, ``resolve_method_conflicts`` and
    ``typecheck_units`` all reporting nothing: only type-checked code
    without ambiguous operations is compiled.  The compiled code does not
    check again what the checker proved (that a receiver is an object or a
    collection, that a feature, variable or ``super`` target exists, that a
    call's arguments fit its signature, that a rule has no side effect); it
    checks only what a type cannot rule out: a void value where a Bool, an
    Int, a String, an object or a collection is due, division by zero, a
    failed ``asType`` and contracts.  A call from outside the program,
    through :meth:`invoke`, is checked once on entry.
    """

    def __init__(self, model: ModelInstance, policy: str = POLICY_PREPOST):
        assert policy in (POLICY_OFF, POLICY_PREPOST, POLICY_FULL)
        self.model = model
        self.objects = model.objects
        self.woven = model.woven
        self.checks = policy != POLICY_OFF
        self.full = policy == POLICY_FULL
        self.trace: list[TraceEvent] = []
        self.code = compiled(self.woven)

    # -- dispatch ---------------------------------------------------------

    @_gc_paused
    def invoke(self, recv, op: str, args: list[Value]) -> Value:
        """Call ``op`` on ``recv`` (an object, a reference or an id) from
        outside the program, checking what no checker saw: the operation and
        its arguments' number and types."""
        obj = self.model.resolve(recv)
        entries = self.woven.classes[obj.class_name].method_table.get(op)
        params = ()
        if entries:
            params = entries[0][1].sig.params
            if len(args) != len(params):
                raise EvalFault(
                    "TypeFault", f"{op} expects {len(params)} argument(s), got {len(args)}"
                )
        elif op in ROOT_BUILTINS:
            params = ROOT_BUILTINS[op].params
            if len(args) != len(params):
                raise EvalFault("TypeFault", f"{op} expects {len(params)} argument(s)")
        for param, arg in zip(params, args):
            if not assignable(self.woven, _value_type(self.model, arg), param.type):
                raise EvalFault(
                    "TypeFault",
                    f"argument {param.name} of {op} expects {param.type}, got {render_value(arg)}",
                )
        self.model.clean = False
        return (self.code.dispatch[obj.class_name].get(op) or _no_method(op))(self, obj, *args)

    def violation(self, error: str, kind: str, name: str, obj: Obj) -> ContractViolation:
        """Trace a violated contract rule and build the error it raises."""
        self.trace.append(ContractViolationEvent(kind, name, obj.id))
        return ContractViolation(error, name, obj.id)


# The builtins every class inherits from the root, named in ``DISPATCH``
# and called as an entry is: ``builtin(interp, obj, *args)``.  Compiled code
# runs ``container`` and ``trace`` inline where no class defines them.


def _container(rt: Interpreter, obj: Obj) -> Value:
    return VOID_VALUE if obj.container is None else ObjRef(obj.container[0])


def _trace(rt: Interpreter, obj: Obj, message: Value) -> Value:
    if message.__class__ is not StringV:
        raise EvalFault("TypeFault", "trace expects a String")
    rt.trace.append(NodeExecuted(message.s))
    return VOID_VALUE


def _fault(rt: Interpreter, obj: Obj, message: Value) -> Value:
    raise EvalFault("Fault", message.s if message.__class__ is StringV else render_value(message))


def eval_expr(e, interp: Interpreter, self_obj, scope: dict[str, Value] | None = None,
              pure: bool = True) -> Value:
    """Type check one expression, then compile and evaluate it with ``self``
    bound.

    ``self`` and each scope variable are typed from their values.  A pure
    expression (the default) may not call operations or instantiate, as a
    contract rule may not.  An ill-typed expression raises TypecheckError.
    """
    obj = interp.model.resolve(self_obj)
    scope = dict(scope or {})
    types = {name: _value_type(interp.model, value) for name, value in scope.items()}
    sink = DiagnosticSink("<expr>")
    typecheck_expr(e, TypeContext(interp.woven, obj.class_name, sink, pure, scopes=[types]))
    if sink:
        raise TypecheckError(sink.items)
    if not pure:
        interp.model.clean = False
    return compile_expr(interp.woven, e, list(scope))(interp, obj, *scope.values())


_PRIM_TYPES = {IntV: INT, BoolV: BOOL, StringV: STRING, VoidV: VOID}


def _value_type(model: ModelInstance, value: Value) -> SemType:
    """The static type of a value.  A collection's elements have the join of
    their types; an empty one's have the error type, which the checker lets
    pass everywhere, soundly, since no element is ever bound."""
    if isinstance(value, Coll):
        elem = ERROR
        for item in value.items:
            elem = _join(model.woven, elem, _value_type(model, item))
        return coll(value.kind, elem)
    if isinstance(value, ObjRef):
        return class_type(model.obj(value.id).class_name)
    t = _PRIM_TYPES.get(type(value))
    if t is None:
        raise EvalFault("TypeFault", f"{render_value(value)} is not a mashup value")
    return t


def _join(woven: WovenModel, a: SemType, b: SemType) -> SemType:
    """The type of two elements of one collection: classes join at the first
    of ``a``'s linearization that ``b`` conforms to (at worst ``Root``)."""
    if a == b or is_error(b) or b == VOID:
        return a
    if is_error(a) or a == VOID:
        return b
    if a.kind == b.kind == "class":
        if a.name == ROOT_CLASS:
            return a
        return class_type(
            next(c for c in woven.classes[a.name].linearization if woven.conforms(b.name, c))
        )
    if a.kind == b.kind == "coll" and a.name == b.name:
        return coll(a.name, _join(woven, a.elem, b.elem))
    raise EvalFault("TypeFault", f"a collection mixes {a} and {b}")


def invoke(model: ModelInstance, obj, op: str, args: list[Value] | None = None,
           policy: str = POLICY_PREPOST) -> tuple[Value, Interpreter]:
    """Dispatch one operation; returns the result and the interpreter (trace)."""
    interp = Interpreter(model, policy)
    return interp.invoke(obj, op, list(args or [])), interp


# ---------------------------------------------------------------------------
# Invariant checking
# ---------------------------------------------------------------------------


class CheckResult(Record, namedtuple("CheckResult", "status invariant obj_id owner detail",
                                     defaults=("", ""))):
    __slots__ = ()  # status: 'holds' | 'violated' | 'error'


def check_invariant(inv: InvariantDecl, obj, model: ModelInstance, owner: str = "",
                    interp: Interpreter | None = None) -> CheckResult:
    """Evaluate one invariant on one object; faults become error results.
    ``interp`` (by default a fresh one without contracts) evaluates it.  An
    invariant the woven model does not own is type checked as pure first,
    as ``eval_expr`` does; an ill-typed one raises TypecheckError."""
    obj = model.resolve(obj)
    interp = interp or Interpreter(model, POLICY_OFF)
    decl, rule = interp.code.rules.get(id(inv), (None, None))
    try:
        value = rule(interp, obj) if decl is inv else eval_expr(inv.body, interp, obj)
    except EvalFault as fault:
        return CheckResult("error", inv.name, obj.id, owner, str(fault))
    if isinstance(value, BoolV) and value.b:
        return CheckResult("holds", inv.name, obj.id, owner)
    if isinstance(value, BoolV):
        return CheckResult("violated", inv.name, obj.id, owner)
    return CheckResult("error", inv.name, obj.id, owner, "invariant did not yield a Bool")


@_gc_paused
def check_model(model: ModelInstance) -> list[CheckResult]:
    """Every flattened invariant of every object, in deterministic order, all
    evaluated by one interpreter."""
    interp = Interpreter(model, POLICY_OFF)
    out: list[CheckResult] = []
    for oid in sorted(model.objects):
        obj = model.objects[oid]
        for owner, inv in model.woven.classes[obj.class_name].flat_invariants:
            out.append(check_invariant(inv, obj, model, owner, interp))
    return out


# ---------------------------------------------------------------------------
# Conformance
# ---------------------------------------------------------------------------


@_gc_paused
def conformance_check(model: ModelInstance, source: str = "<model>") -> list[Diagnostic]:
    """Structural validity: types, bounds, opposite listing, containment forest.

    One walk checks every slot against its class's slot plans, a second the
    opposite and containment links (``_check_links``); a message is
    formatted only for what fails.  Diagnostics keep a fixed order: each
    object's slot findings, then opposite mismatches, then containment and
    roots.  ``source`` labels them.
    """
    sink, opposites, containment = (DiagnosticSink(source) for _ in range(3))
    objects, classes = model.objects, model.woven.classes
    for oid, obj in objects.items():
        wc = classes.get(obj.class_name)
        if wc is None:
            sink.add("UnknownClass", f"object {oid} has unknown class {obj.class_name}")
            continue
        if wc.is_abstract:
            sink.add("AbstractInstance", f"object {oid} instantiates abstract {obj.class_name}")
        slots, features = obj.slots, wc.slots
        for fname, value in slots.items():
            sp = features.get(fname)
            if sp is None:
                sink.add("UnknownFeature", f"object {oid} has unknown slot {fname}")
                continue
            if sp.many:
                if not isinstance(value, Coll):
                    sink.add("ConformanceError", f"{oid}.{sp.name} must hold a collection")
                    continue
                items = value.items
                if len(items) < sp.lower:
                    sink.add("ConformanceError",
                             f"{oid}.{sp.name} holds {len(items)} element(s), lower bound is "
                             f"{sp.lower}")
            elif isinstance(value, VoidV):
                if sp.prim is not None:
                    sink.add("ConformanceError", f"attribute {oid}.{sp.name} cannot be void")
                elif sp.lower >= 1:
                    sink.add("ConformanceError", f"required reference {oid}.{sp.name} is unset")
                continue
            else:
                items = (value,)
            prim, targets = sp.prim, sp.targets
            for x in items:
                if prim is not None:
                    if isinstance(x, prim):
                        continue
                elif isinstance(x, ObjRef):
                    target = objects.get(x.id)
                    if target is not None and (targets is None or target.class_name in targets):
                        continue
                sink.add("ConformanceError", _element_problem(objects, f"{oid}.{sp.name}", sp, x))
        if slots.keys() != features.keys():
            for fname in features:
                if fname not in slots:
                    sink.add("MissingSlot", f"object {oid} lacks slot {fname}")
    _check_forest(model, _check_links(model, opposites, containment), containment)
    return sink.items + opposites.items + containment.items


def _check_links(model: ModelInstance, opposites: DiagnosticSink,
                 containment: DiagnosticSink) -> dict[str, tuple[str, str]]:
    """Each link slot's targets against their opposite slots, and each
    contained object against a second container; returns the first
    (container id, feature) the slots give each contained object."""
    objects, classes = model.objects, model.woven.classes
    container_of: dict[str, tuple[str, str]] = {}
    listed: dict[int, set[str]] = {}  # the ids of long opposite collections (_lists)
    for oid, obj in objects.items():
        wc = classes.get(obj.class_name)
        if wc is None:
            continue
        slots = obj.slots
        for sp in wc.links:
            value = slots.get(sp.name)
            for tgt in value.items if isinstance(value, Coll) else (value,):
                if not isinstance(tgt, ObjRef):
                    continue
                tid = tgt.id
                if sp.opposite is not None:
                    t_obj = objects.get(tid)
                    if t_obj is not None:
                        back = t_obj.slots.get(sp.opposite)
                        if back.__class__ is ObjRef:
                            found = back.id == oid
                        elif back.__class__ is Coll and len(back.items) <= _SCAN_LIMIT:
                            # a reference is the one-tuple of its id
                            found = (oid,) in back.items
                        else:
                            found = _lists(back, oid, listed)
                        if not found:
                            opposites.add(
                                "OppositeMismatch",
                                f"{oid}.{sp.name} lists {tid} but {tid}.{sp.opposite} "
                                f"does not list {oid}",
                            )
                if sp.containment:
                    if tid in container_of:
                        containment.add(
                            "ContainmentError",
                            f"object {tid} is contained both by {container_of[tid][0]} "
                            f"and {oid}",
                        )
                    else:
                        container_of[tid] = (oid, sp.name)
    return container_of


def _element_problem(objects: dict[str, Obj], where: str, sp: SlotPlan, value) -> str:
    if sp.prim is not None:
        return f"{where} expects {sp.feat.type}"
    if not isinstance(value, ObjRef):
        return f"{where} expects an object reference"
    target = objects.get(value.id)
    if target is None:
        return f"{where} points at undeclared id {value.id}"
    return f"{where} expects {sp.feat.target}, found {target.class_name}"


_SCAN_LIMIT = 8  # the measured crossover (BENCH_10.json "opposite_crossover")


def _lists(value, oid: str, listed: dict[int, set[str]]) -> bool:
    """Whether ``value`` lists the object ``oid``, where ``_check_links``
    does not test it inline (a reference, or a collection of up to
    ``_SCAN_LIMIT`` elements): a collection is read once into the set of its
    ids, which ``listed`` keeps by the collection's identity while the check
    runs."""
    if not isinstance(value, Coll):
        return False
    ids = listed.get(id(value))
    if ids is None:
        ids = listed[id(value)] = {x.id for x in value.items if isinstance(x, ObjRef)}
    return oid in ids


def _check_forest(model: ModelInstance, container_of: dict[str, tuple[str, str]],
                  sink: DiagnosticSink) -> None:
    """Recorded containers, cycles and roots against the containment slots."""
    for oid, obj in model.objects.items():
        expected = container_of.get(oid)
        if obj.container != expected:
            sink.add(
                "ContainmentError",
                f"object {oid} records container {obj.container}, slots say {expected}",
            )
    # Cycle detection over the container map.  Climbing from an object, the
    # first node met twice is where its chain enters a cycle.  ``entry``
    # memoizes that node per object (None for a chain that ends at a root),
    # so each object is climbed through once: a node on a cycle is its own
    # entry, and any other object has its container's.
    entry: dict[str, str | None] = {}
    for oid in model.objects:
        link = container_of.get(oid)
        if link is None or link[0] not in container_of:
            continue  # a root, or contained by one: no cycle
        if oid not in entry:
            if link[0] in entry:
                entry[oid] = entry[link[0]]
            else:
                path: dict[str, None] = {}  # the climb, in order
                cur = oid
                while cur in container_of and cur not in entry and cur not in path:
                    path[cur] = None
                    cur = container_of[cur][0]
                found = cur if cur in path else entry.get(cur)
                on_cycle = False
                for node in path:
                    on_cycle = on_cycle or node == cur
                    entry[node] = node if on_cycle else found
        if entry[oid] is not None:
            sink.add("ContainmentError", f"containment cycle through {entry[oid]}")
    if len(set(model.roots)) != len(model.roots):
        sink.add("ConformanceError", "roots list repeats an object")
    declared = set(model.roots)
    derived = {oid for oid in model.objects if oid not in container_of}
    for oid in sorted(declared - set(model.objects)):
        sink.add("ConformanceError", f"root {oid} is not an object of the model")
    for oid in sorted(declared & set(model.objects) - derived):
        sink.add("ConformanceError", f"root {oid} has a container")
    for oid in sorted(derived - declared):
        sink.add("ConformanceError", f"uncontained object {oid} is missing from roots")


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _shape_problems(doc) -> list[str]:
    """What keeps a decoded JSON value from being read as a model document."""
    if not isinstance(doc, dict) or "objects" not in doc:
        return ["model document must be an object with 'objects'"]
    problems = []
    entries = doc["objects"]
    if not isinstance(entries, list):
        problems.append("'objects' must be a list")
        entries = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            problems.append(f"objects[{i}] must be an object")
            continue
        if not isinstance(entry.get("id"), str) or not entry["id"]:
            problems.append(f"objects[{i}].id must be a non-empty string")
        if not isinstance(entry.get("class"), str):
            problems.append(f"objects[{i}].class must be a string")
        if not isinstance(entry.get("slots", {}), dict):
            problems.append(f"objects[{i}].slots must be an object")
    if not isinstance(doc.get("roots", []), list):
        problems.append("'roots' must be a list")
    return problems


@_gc_paused
def load_model(text: str, woven: WovenModel, source: str = "<model>") -> ModelInstance:
    """Parse, resolve and conformance-check a JSON model document.

    The decode checks each slot against its plan as it reads it (scalar
    class, target id and class, lower bound, abstract class), and
    ``_check_links`` and ``_check_forest`` then check the links once.  They
    only tell whether the model conforms: if anything fails,
    ``conformance_check`` runs and its diagnostics are raised, so each
    keeps its one wording and order.  ``source`` labels every diagnostic,
    normally with the document's path.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise UnitParseError(
            [Diagnostic("SyntaxError", f"bad model document: {exc}", source)]
        ) from exc
    problems = _shape_problems(doc)
    if problems:
        raise UnitParseError([Diagnostic("SyntaxError", p, source) for p in problems])
    sink = DiagnosticSink(source)
    if doc.get("conformsTo") != woven.package:
        sink.add(
            "ConformanceError",
            f"model conforms to {doc.get('conformsTo')!r}, composed package is "
            f"{woven.package!r}",
        )
    model = ModelInstance(woven)
    objects, classes = model.objects, woven.classes
    by_text: dict[str, tuple[ObjRef, str]] = {}  # "@id" -> (reference, class name)
    entries = doc["objects"]
    for entry in entries:
        oid = entry["id"]
        cls = entry["class"]
        if oid in objects:
            sink.add("ConformanceError", f"duplicate object id {oid}")
            continue
        wc = classes.get(cls)
        if wc is None:
            sink.add("UnknownClass", f"object {oid} has unknown class {cls}")
            continue
        objects[oid] = Obj(oid, cls, dict(wc.defaults))
        by_text["@" + oid] = (ObjRef(oid), cls)
    if sink:
        raise TypecheckError(sink.items)

    conforms = True
    for entry in entries:
        obj = objects[entry["id"]]
        wc = classes[obj.class_name]
        features, slots = wc.slots, obj.slots
        if wc.is_abstract:
            conforms = False
        for fname, raw in entry.get("slots", {}).items():
            sp = features.get(fname)
            if sp is None:
                sink.add("UnknownFeature", f"object {obj.id} has unknown slot {fname}")
                continue
            # inline: a list of "@id"s, an "@id" and a String
            if sp.prim is None:
                targets = sp.targets
                if sp.many:
                    if raw.__class__ is list:
                        refs = []
                        for x in raw:
                            hit = by_text.get(x) if x.__class__ is str else None
                            if hit is None:
                                break
                            if targets is not None and hit[1] not in targets:
                                conforms = False
                            refs.append(hit[0])
                        else:
                            slots[fname] = make_coll(sp.kind, refs)
                            continue
                elif raw.__class__ is str:
                    hit = by_text.get(raw)
                    if hit is not None:
                        if targets is not None and hit[1] not in targets:
                            conforms = False
                        slots[fname] = hit[0]
                        continue
            elif sp.prim is StringV and raw.__class__ is str and not sp.many:
                slots[fname] = StringV(raw)
                continue
            # every other shape; a reference decoded here is void or reported
            value = _decode_slot(objects, obj.id, sp, raw, sink)
            if value is not None:
                slots[fname] = value
        for sp in wc.required:
            value = slots[sp.name]
            if len(value.items) < sp.lower if sp.many else value.__class__ is VoidV:
                conforms = False
    if sink:
        raise TypecheckError(sink.items)

    links = DiagnosticSink(source)
    container_of = _check_links(model, links, links)
    for oid, container in container_of.items():
        objects[oid].container = container
    for r in doc.get("roots", []):
        if not isinstance(r, str) or not r.startswith("@"):
            sink.add("ConformanceError", f"roots entries must be @id strings, found {r!r}")
        else:
            model.roots.append(r[1:])
    if sink:
        raise TypecheckError(sink.items)
    _check_forest(model, container_of, links)
    if not conforms or links:
        problems = conformance_check(model, source)
        if problems:
            raise TypecheckError(problems)
    model.clean = True
    return model


def _decode_slot(objects: dict[str, Obj], oid: str, sp: SlotPlan, raw,
                 sink: DiagnosticSink):
    if sp.many:
        if not isinstance(raw, list):
            sink.add("ConformanceError", f"{oid}.{sp.name} must be a list")
            return None
        elements = raw
    elif raw is None:
        if sp.prim is not None:
            sink.add("ConformanceError", f"attribute {oid}.{sp.name} cannot be null")
            return None
        return VOID_VALUE
    else:
        elements = (raw,)
    items = [_decode_element(objects, oid, sp, x, sink) for x in elements]
    if not sp.many:
        return items[0]
    return make_coll(sp.kind, [v for v in items if v is not None])


def _decode_element(objects: dict[str, Obj], oid: str, sp: SlotPlan, raw,
                    sink: DiagnosticSink):
    prim = sp.prim
    if prim is IntV and isinstance(raw, int) and not isinstance(raw, bool):
        return IntV(raw)
    if prim is BoolV and isinstance(raw, bool):
        return TRUE if raw else FALSE
    if prim is StringV and isinstance(raw, str):
        return StringV(raw)
    if prim is not None:
        sink.add("ConformanceError",
                 f"{oid}.{sp.name} expects a {sp.feat.type} scalar, found {raw!r}")
        return None
    if not isinstance(raw, str) or not raw.startswith("@"):
        sink.add("ConformanceError",
                 f"{oid}.{sp.name} expects an \"@id\" reference, found {raw!r}")
        return None
    tid = raw[1:]
    if tid not in objects:
        sink.add("ConformanceError", f"{oid}.{sp.name} points at undeclared id {tid}")
        return None
    return ObjRef(tid)


# The C string encoder json.dumps itself uses; the rest of the canonical
# layout is written below, as json.dumps(doc, indent=2, sort_keys=True)
# lays it out.
_quote = json.encoder.encode_basestring_ascii

_JSON_SCALARS = {
    IntV: lambda v: int.__repr__(v.i),
    BoolV: lambda v: "true" if v.b else "false",
}


def _json_block(brackets: str, items: list[str], indent: str) -> str:
    """Encoded array items or object members, one per line, inside
    ``brackets`` closed at ``indent``."""
    if not items:
        return brackets
    inner = "\n  " + indent
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent + brackets[1]


@_gc_paused
def save_model(model: ModelInstance) -> str:
    """The canonical text of a model; refuses nonconformant models.

    A model that is ``clean`` is not checked again.  The text is
    ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` of the document
    {conformsTo, objects ordered by id, roots}, written straight from the
    objects without building ``doc``.
    """
    if not model.clean:
        problems = conformance_check(model)
        if problems:
            raise TypecheckError(problems)
        model.clean = True
    classes = model.woven.classes
    objects = []
    for oid in sorted(model.objects):
        obj = model.objects[oid]
        # conformance leaves exactly the class's features in the slots, each
        # element of the class its plan gives; slots at their default are left out
        slots = []
        for sp in classes[obj.class_name].save_order:
            value = obj.slots[sp.name]
            prim = sp.prim
            if sp.many:
                items = value.items
                if not items:
                    if value.kind == sp.kind:
                        continue
                    text = "[]"
                else:
                    text = "[\n          " + ",\n          ".join(
                        [_quote("@" + x.id) for x in items] if prim is None
                        else [_quote(x.s) for x in items] if prim is StringV
                        else [_JSON_SCALARS[prim](x) for x in items]
                    ) + "\n        ]"
            elif prim is None:
                if value.__class__ is VoidV:
                    continue
                text = _quote("@" + value.id)
            elif value == sp.default:
                continue
            else:
                text = _quote(value.s) if prim is StringV else _JSON_SCALARS[prim](value)
            slots.append(_quote(sp.name) + ": " + text)
        objects.append(_json_block("{}", [
            f'"class": {_quote(obj.class_name)}',
            f'"id": {_quote(oid)}',
            f'"slots": {_json_block("{}", slots, " " * 6)}',
        ], " " * 4))
    return _json_block("{}", [
        f'"conformsTo": {_quote(model.woven.package)}',
        f'"objects": {_json_block("[]", objects, "  ")}',
        f'"roots": {_json_block("[]", [_quote("@" + r) for r in model.roots], "  ")}',
    ], "") + "\n"
