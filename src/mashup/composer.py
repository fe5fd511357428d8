"""The mashup engine: unit resolution, open-class weaving, linearization,
conflict handling and contract flattening.

Composition weaves every ``aspect class`` (an :class:`AspectClass` of a
constraint or a behavior unit alike) straight into its base metamodel
class, keeping each class's aspects in unit order; two aspects of one class
contributing the same member clash.  It produces one :class:`WovenClass`
per class with:

* a Scala-style linearization (last occurrence of a repeated superclass
  wins, the implicit reflection root ``Root`` is always final),
* a slot plan per feature, its one feature table (any two declarations of
  the same feature name in one linearization are a clash; features cannot
  be renamed), settled here once for every model operation: the declaring
  class, bounds, collection kind, default, value class or conforming target
  classes, opposite and containment; the plans in declaration order, in
  save (name) order, and the link slots (those with an opposite or a
  containment),
* a method table in linearization order, rewritten by explicit renamings,
  with each renamed-away name keeping the signature of the body it still
  runs,
* flattened contracts: invariants accumulate down the hierarchy, effective
  preconditions are the disjunction of per-class groups, effective
  postconditions the conjunction of every clause.

Two base metamodel classes with the same name can never be mixed; that
composition is forbidden outright.  An aspect reopens a class a metamodel
declares; an aspect of any other name is an error.

compose() is a pure function of its input units; the returned WovenModel is
never mutated afterwards and may be shared read-only across threads.
"""

from __future__ import annotations

import difflib
import os
from collections import namedtuple

from .behavior import AspectClass, AspectUnit, MethodDef, Renaming, parse_behavior
from .contracts import ConditionDecl, InvariantDecl, parse_contracts
from .diagnostics import (
    NOPOS, CompositionError, Diagnostic, DiagnosticSink, Pos, Record, UnitParseError,
    nested_too_deeply,
)
from .exprs import Coll, Value, type_default
from .lexer import Lexer, parse_header
from .metamodel import (
    Attribute, MetaClass, Metamodel, OperationSig, Param, Reference, feature_type,
    parse_metamodel, supertypes_first,
)
from .semtypes import SemType, STRING, VOID, class_type

ROOT_CLASS = "Root"

# Builtin operations every class inherits from the reflection root.
ROOT_BUILTINS: dict[str, OperationSig] = {
    "trace": OperationSig("trace", (Param("message", STRING),), VOID),
    "fault": OperationSig("fault", (Param("message", STRING),), VOID),
    "container": OperationSig("container", (), class_type(ROOT_CLASS)),
}

Unit = Metamodel | AspectUnit


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


class MashupManifest(Record, namedtuple(
        "MashupManifest", "package requires main source_unit source_dir",
        defaults=(None, "<mashup>", "."))):
    __slots__ = ()


def parse_manifest(text: str, unit: str = "<mashup>", source_dir: str = ".") -> MashupManifest:
    lx = Lexer(text, unit)
    package, requires = parse_header(lx, "manifest")
    main = None
    if lx.accept("main"):
        cls = lx.expect_ident("class name").value
        lx.expect(".")
        op = lx.expect_ident("operation name").value
        lx.expect(";")
        main = (cls, op)
    if not lx.at_eof():
        raise lx.error("trailing input after manifest")
    if len(set(requires)) != len(requires):
        raise UnitParseError(
            [Diagnostic("DuplicateRequire", "manifest lists the same unit twice", unit)]
        )
    return MashupManifest(package, requires, main, unit, source_dir)


def read_source(path: str, what: str, unit: str | None = None) -> str:
    """Return the UTF-8 text of ``path``.

    A file that cannot be opened or decoded is a ``UnitNotFound`` error
    (``cannot read <what>: ...``) reported against ``unit``, or ``path``.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UnitParseError(
            [Diagnostic("UnitNotFound", f"cannot read {what}: {exc}", unit or path)]
        ) from exc


def load_manifest(path: str) -> MashupManifest:
    text = read_source(path, "manifest")
    return parse_manifest(text, os.path.basename(path), os.path.dirname(path) or ".")


_PARSERS = {".mm": parse_metamodel, ".inv": parse_contracts, ".act": parse_behavior}


def resolve_requires(manifest: MashupManifest) -> list[Unit]:
    """Load and parse every required unit, transitively, each exactly once.

    Paths resolve against the requiring unit's directory.  Units appear in
    require order with dependencies first, so later aspect units see earlier
    ones.
    """
    seen: set[str] = set()
    out: list[Unit] = []

    def visit(require_path: str, relative_to: str) -> None:
        resolved = os.path.normpath(os.path.join(relative_to, require_path))
        key, display = os.path.abspath(resolved), os.path.basename(resolved)
        if key in seen:
            return
        seen.add(key)
        text = read_source(resolved, "unit", require_path)
        ext = os.path.splitext(require_path)[1]
        parser = _PARSERS.get(ext)
        if parser is None:
            raise UnitParseError(
                [Diagnostic("UnknownUnitKind", f"no parser for {ext or 'extension-less'} unit",
                            require_path)]
            )
        try:
            unit = parser(text, display)
        except RecursionError:
            raise nested_too_deeply(display) from None
        for sub in getattr(unit, "requires", ()):
            visit(sub, os.path.dirname(key) or ".")
        out.append(unit)

    for path in manifest.requires:
        visit(path, manifest.source_dir)
    return out


# ---------------------------------------------------------------------------
# Aspect clashes
# ---------------------------------------------------------------------------

# What two aspects of one class may not both contribute, nor one aspect
# twice, by kind, in the order the kinds are checked and reported: each
# member's key and position.  A
# condition's key is ``<name> on <operation>``, as its message names it.
_MEMBERS = (
    ("feature", lambda a: [(f.name, f.pos) for f in a.added_attributes + a.added_references]),
    ("method", lambda a: [(m.sig.name, m.pos) for m in a.methods]),
    ("invariant", lambda a: [(i.name, i.pos) for i in a.invariants]),
    ("condition", lambda a: [(f"{c.name} on {c.op_name}", c.pos)
                             for c in a.pre_conditions + a.post_conditions]),
)


def _check_aspect(aspect: AspectClass, unit: str, earlier: list[tuple[AspectClass, str]],
                  sink: DiagnosticSink) -> None:
    """Report each member of ``aspect`` that an earlier aspect of its class,
    or an earlier member of ``aspect`` itself, contributes too, at the later
    member: any overlap is a clash, never a silent override.  A feature
    repeated inside one aspect is left to the slot check."""
    for kind, members in _MEMBERS:
        seen: dict[str, str] = {}  # key -> the unit of its first contribution
        for prev, u in earlier:
            for key, _pos in members(prev):
                seen.setdefault(key, u)
        for key, pos in members(aspect):
            if key in seen:
                sink.add("FeatureClash",
                         f"{kind} {aspect.class_name}.{key} is contributed by both {seen[key]} "
                         f"and {unit}", pos, unit)
            elif kind != "feature":
                seen[key] = unit


# ---------------------------------------------------------------------------
# Linearization
# ---------------------------------------------------------------------------


def linearize_all(graph: dict[str, tuple[str, ...]],
                  declared_at: dict[tuple[str, str], tuple[str, Pos]] | None = None,
                  ) -> dict[str, tuple[str, ...]]:
    """Scala-style linearization of every class of a supertype DAG.

    A class comes first, followed by the linearizations of its declared
    supertypes concatenated in reverse declaration order; a class occurring
    several times keeps only its last (rightmost) occurrence.  ``Root`` is
    always final.  Keeping last occurrences composes, so each class reuses
    its supertypes' results instead of expanding the whole DAG: classes are
    linearized supertypes first, so no hierarchy is too deep.  A cycle is a
    CycleError, positioned where ``declared_at`` (class, supertype) puts its
    first edge.
    """
    order, cycle = supertypes_first(graph)
    if cycle:
        unit, pos = (declared_at or {}).get((cycle[0], cycle[1]), ("<compose>", NOPOS))
        raise CompositionError(
            [Diagnostic("CycleError", "supertype cycle: " + " -> ".join(cycle), unit, pos)]
        )
    memo: dict[str, tuple[str, ...]] = {ROOT_CLASS: (ROOT_CLASS,)}
    for c in order:
        # walk the concatenation right to left, keeping first sightings
        parts = [(ROOT_CLASS,)] + [memo[sup] for sup in graph[c]]
        seen: set[str] = set()
        out: list[str] = []
        for part in parts:
            for name in reversed(part):
                if name not in seen:
                    seen.add(name)
                    out.append(name)
        out.append(c)
        out.reverse()
        memo[c] = tuple(out)
    return {name: memo[name] for name in graph}


def linearize(class_name: str, graph: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
    """The linearization of one class; see :func:`linearize_all`."""
    return linearize_all({**graph, class_name: graph.get(class_name, ())})[class_name]


# ---------------------------------------------------------------------------
# Woven model
# ---------------------------------------------------------------------------


class SlotPlan:
    """What type checking, creating, assigning, checking, loading and saving
    ask of one slot.  ``owner`` is the class declaring the feature and
    ``unit`` the unit declaring it; ``conforming`` maps a class name to the
    names of the classes conforming to it (None: every class).  Every class
    that inherits a feature shares its plan."""

    __slots__ = ("name", "feat", "owner", "unit", "many", "lower", "kind", "default", "prim",
                 "targets", "opposite", "containment")

    def __init__(self, feat: Attribute | Reference, owner: str, unit: str,
                 conforming: dict[str, frozenset[str] | None]):
        t = feature_type(feat)
        self.name = feat.name
        self.feat = feat
        self.owner = owner
        self.unit = unit
        self.many = feat.bounds.many
        self.lower = feat.bounds.lower
        # a many-valued slot's collection kind, or a single one's shared default
        self.kind = t.name if self.many else None
        self.default = None if self.many else type_default(t)
        elem = t.elem if self.many else t
        # the value class of an attribute's elements
        self.prim = type(type_default(elem)) if elem.kind == "prim" else None
        is_ref = isinstance(feat, Reference)
        # class names a referenced object may have (only itself for a target
        # no unit declares); None when all conform
        self.targets = conforming.get(feat.target, frozenset((feat.target,))) if is_ref else None
        self.opposite = feat.opposite if is_ref else None
        self.containment = is_ref and feat.containment


class WovenClass:
    """One class of the woven table.  The operation table covers the whole
    linearization, as do the slots."""

    def __init__(self, name: str, is_abstract: bool, supertypes: tuple[str, ...],
                 linearization: tuple[str, ...],
                 op_sigs: dict[str, tuple[OperationSig, str]] | None = None,
                 base_sig_names: frozenset[str] = frozenset(),
                 method_table: dict[str, tuple[tuple[str, MethodDef], ...]] | None = None,
                 raw_definers: dict[str, tuple[tuple[str, MethodDef], ...]] | None = None,
                 ambiguous_ops: frozenset[str] = frozenset(),
                 slots: dict[str, SlotPlan] | None = None):
        self.name = name
        self.is_abstract = is_abstract
        self.supertypes = supertypes
        self.linearization = linearization
        self.op_sigs = {} if op_sigs is None else op_sigs
        self.base_sig_names = base_sig_names  # ops declared by the base class itself
        # dispatch view after renamings; raw_definers keeps the unrenamed
        # chains in linearization order for super resolution
        self.method_table = {} if method_table is None else method_table
        self.raw_definers = {} if raw_definers is None else raw_definers
        self.ambiguous_ops = ambiguous_ops
        # the rules along the linearization, as flatten_contracts gives them
        self.flat_invariants: tuple[tuple[str, InvariantDecl], ...] = ()
        self.flat_pre: dict[str, tuple[tuple[str, tuple[ConditionDecl, ...]], ...]] = {}
        self.flat_post: dict[str, tuple[tuple[str, ConditionDecl], ...]] = {}
        # slot plans in declaration order, in save (name) order, the link
        # slots and the slots with a lower bound
        slots = self.slots = {} if slots is None else slots
        self.save_order = tuple(slots[fname] for fname in sorted(slots))
        self.links = tuple(sp for sp in slots.values() if sp.opposite is not None or sp.containment)
        self.required = tuple(sp for sp in slots.values() if sp.lower >= 1)
        # every slot at its type default, for create and load to copy: a
        # collection is a value, so one empty collection per slot serves
        # every object
        self.defaults: dict[str, Value] = {
            name: Coll(sp.kind) if sp.many else sp.default for name, sp in slots.items()}


class WovenModel:
    def __init__(self, package: str, classes: dict[str, WovenClass],
                 base_units: tuple[str, ...] = (),
                 aspect_units: dict[str, tuple[str, ...]] | None = None,
                 method_units: dict[tuple[str, str], str] | None = None,
                 sig_units: dict[tuple[str, str], str] | None = None):
        self.package = package
        self.classes = classes
        self.base_units = base_units
        self.aspect_units = {} if aspect_units is None else aspect_units
        # (class, method) -> the behavior unit that declares the body
        self.method_units = {} if method_units is None else method_units
        # (class, operation) of an op_sigs entry -> the unit declaring the signature
        self.sig_units = {} if sig_units is None else sig_units
        # the compiled behaviour and rules (codegen.compiled), made on first use
        self.compiled = None

    def conforms(self, sub: str, sup: str) -> bool:
        if sup == ROOT_CLASS or sub == sup:
            return True
        wc = self.classes.get(sub)
        return wc is not None and sup in wc.linearization

    def feature(self, class_name: str, feature: str) -> SlotPlan | None:
        wc = self.classes.get(class_name)
        return wc.slots.get(feature) if wc is not None else None

    def op_sig(self, class_name: str, op: str):
        wc = self.classes.get(class_name)
        if wc is not None and op in wc.op_sigs:
            return wc.op_sigs[op]
        if op in ROOT_BUILTINS:
            return ROOT_BUILTINS[op], ROOT_CLASS
        return None


# ---------------------------------------------------------------------------
# Contract flattening
# ---------------------------------------------------------------------------


def flatten_contracts(
    linearization: tuple[str, ...],
    aspects_of: dict[str, list[tuple[AspectClass, str]]],
):
    """Merge the rules of each class's aspects along one linearization.

    Invariants of every class in the linearization are kept (subtypes
    preserve supertype invariants).  For each operation, the preconditions
    declared at one class level, by all its aspects, form a group whose
    clauses conjoin; the effective precondition is the disjunction of the
    groups.  Effective postconditions conjoin every clause of every level.
    """
    flat_invs: list[tuple[str, InvariantDecl]] = []
    pre_groups: dict[str, list[tuple[str, tuple[ConditionDecl, ...]]]] = {}
    post_clauses: dict[str, list[tuple[str, ConditionDecl]]] = {}
    for cls in linearization:
        by_op: dict[str, list[ConditionDecl]] = {}
        for aspect, _unit in aspects_of.get(cls, ()):
            flat_invs.extend((cls, inv) for inv in aspect.invariants)
            for cond in aspect.pre_conditions:
                by_op.setdefault(cond.op_name, []).append(cond)
            for cond in aspect.post_conditions:
                post_clauses.setdefault(cond.op_name, []).append((cls, cond))
        for op, conds in by_op.items():
            pre_groups.setdefault(op, []).append((cls, tuple(conds)))
    return (
        tuple(flat_invs),
        {op: tuple(groups) for op, groups in pre_groups.items()},
        {op: tuple(clauses) for op, clauses in post_clauses.items()},
    )


# ---------------------------------------------------------------------------
# Method conflicts
# ---------------------------------------------------------------------------


def resolve_method_conflicts(wc: WovenClass, woven: WovenModel) -> list[Diagnostic]:
    """Report every operation that stays ambiguous after renamings.

    An operation is ambiguous when its winning definer (first in the
    linearization) does not override all other definers along its own
    inheritance chain.  Each report points at the winning definer's body in
    the behavior unit that declares it.
    """
    sink = DiagnosticSink(wc.name)
    for op in sorted(wc.ambiguous_ops):
        entries = wc.method_table[op]
        owners = [owner for owner, _m in entries]
        owner0, mdef0 = entries[0]
        sink.add(
            "AmbiguousMethod",
            f"{wc.name}.{op} is defined by unrelated classes "
            f"{', '.join(owners)}; add an explicit renaming",
            mdef0.pos,
            woven.method_units.get((owner0, mdef0.sig.name)),
        )
    return sink.items


def _is_ambiguous(entries, lin_of: dict[str, tuple[str, ...]]) -> bool:
    if len(entries) < 2:
        return False
    first = entries[0][0]
    first_lin = lin_of[first]
    return any(owner not in first_lin for owner, _m in entries[1:])


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------


def compose(units: list[Unit], package: str | None = None) -> WovenModel:
    """Weave parsed units into a WovenModel.

    Raises CompositionError for forbidden base/base mixes, aspects of
    undeclared classes, member clashes, unknown supertypes, supertype cycles,
    feature clashes and bad renamings, each phase reporting every problem it
    finds.  The unknown aspect targets and member clashes of a build are
    reported together, in unit order: each aspect in turn, its members by
    kind.  A feature declaration that clashes is reported once, at that
    declaration, however many classes inherit the clash.  The bad renamings
    of a build are reported together, in unit and position order.
    Ambiguous methods do not abort composition; they are recorded on the
    class and reported by resolve_method_conflicts, and the rules that need
    no weaving decision are left to validate_woven.
    """
    metamodels = [u for u in units if isinstance(u, Metamodel)]
    if not metamodels:
        raise CompositionError(
            [Diagnostic("NoMetamodel", "composition needs at least one metamodel unit")]
        )
    package = package or metamodels[0].name

    sink = DiagnosticSink("<compose>")
    base: dict[str, tuple[MetaClass, str]] = {}
    for mm in metamodels:
        for cls in mm.classes:
            if cls.name in base:
                sink.add("ForbiddenComposition",
                         f"class {cls.name} is declared by both {base[cls.name][1]} "
                         f"and {mm.source_unit}; mixing two base classes is forbidden",
                         cls.pos, mm.source_unit)
            elif cls.name == ROOT_CLASS:
                sink.add("ReservedName", f"{ROOT_CLASS} is the implicit reflection root",
                         cls.pos, mm.source_unit)
            else:
                base[cls.name] = (cls, mm.source_unit)
    if sink:
        raise CompositionError(sink.items)

    # each class's aspects with their units, in unit order
    aspects_of: dict[str, list[tuple[AspectClass, str]]] = {}
    for unit in units:
        if isinstance(unit, Metamodel):
            continue
        for aspect in unit.aspects:
            name = aspect.class_name
            if name not in base:
                hint = difflib.get_close_matches(name, base, n=1)
                sink.add("UnknownAspectTarget", f"aspect targets unknown class {name}"
                         + (f"; did you mean {hint[0]}?" if hint else ""),
                         aspect.pos, unit.source_unit)
                continue
            earlier = aspects_of.setdefault(name, [])
            _check_aspect(aspect, unit.source_unit, earlier, sink)
            earlier.append((aspect, unit.source_unit))
    if sink:
        raise CompositionError(sink.items)

    # each class's supertypes, the metamodel's then the aspects', each at
    # the unit and position of its first declaration
    graph: dict[str, tuple[str, ...]] = {}
    declared_at: dict[tuple[str, str], tuple[str, Pos]] = {}
    for name, (cls, mm_unit) in base.items():
        supers = dict.fromkeys(cls.supertypes, (mm_unit, cls.pos))
        for aspect, unit in aspects_of.get(name, ()):
            for sup in aspect.added_supertypes:
                supers.setdefault(sup, (unit, aspect.pos))
        for sup, (unit, pos) in supers.items():
            declared_at[name, sup] = (unit, pos)
            if sup not in base:
                sink.add("ResolutionError", f"class {name} inherits unknown class {sup}",
                         pos, unit)
        graph[name] = tuple(supers)
    if sink:
        raise CompositionError(sink.items)

    lin_of = linearize_all(graph, declared_at)

    # the classes conforming to each class, from one inverse pass over the
    # linearizations; every class conforms to the root
    below: dict[str, set[str]] = {}
    for name, lin in lin_of.items():
        for sup in lin:
            below.setdefault(sup, set()).add(name)
    conforming = {sup: frozenset(names) for sup, names in below.items()}
    conforming[ROOT_CLASS] = None

    # own (declared-at-this-class) members; one slot plan per declared feature
    own_plans: dict[str, list[SlotPlan]] = {}
    own_methods: dict[str, list[MethodDef]] = {}
    own_sigs: dict[str, list[tuple[OperationSig, str]]] = {}  # (signature, unit)
    sig_units: dict[tuple[str, str], str] = {}
    for name in base:
        mm_unit = base[name][1]
        pairs = aspects_of.get(name, ())
        # the metamodel's features, then every aspect's attributes, then
        # every aspect's references
        feats = [(f, mm_unit) for f in base[name][0].features()]
        feats += [(f, unit) for aspect, unit in pairs for f in aspect.added_attributes]
        feats += [(f, unit) for aspect, unit in pairs for f in aspect.added_references]
        own_methods[name] = [m for aspect, _unit in pairs for m in aspect.methods]
        sigs = [(s, mm_unit) for s in base[name][0].operations]
        sigs += [(m.sig, unit) for aspect, unit in pairs for m in aspect.methods]
        own_plans[name] = [SlotPlan(f, name, unit, conforming) for f, unit in feats]
        own_sigs[name] = sigs
        for sig, unit in sigs:
            sig_units.setdefault((name, sig.name), unit)
        declared: set[str] = set()
        for sig in base[name][0].operations:
            if sig.name in declared:
                sink.add("FeatureClash",
                         f"class {name} declares operation {sig.name} more than once",
                         sig.pos, mm_unit)
            declared.add(sig.name)

    # each class's slots along its linearization; a declaration clashing
    # with an earlier one is reported once, whichever classes inherit both
    slots_of: dict[str, dict[str, SlotPlan]] = {}
    clashed: set[SlotPlan] = set()
    for name in base:
        slots = slots_of[name] = {}
        for cls in lin_of[name]:
            for sp in own_plans.get(cls, ()):
                first = slots.setdefault(sp.name, sp)
                if first is sp or sp in clashed:
                    continue
                clashed.add(sp)
                sink.add("FeatureClash",
                         f"class {cls} declares feature {sp.name} more than once"
                         if first.owner == cls else
                         f"feature {sp.name} reaches {name} from both {first.owner} and {cls}",
                         sp.feat.pos, sp.unit)
    if sink:
        raise CompositionError(sink.items)

    woven = WovenModel(
        package, {},
        base_units=tuple(dict.fromkeys(mm.source_unit for mm in metamodels)),
        aspect_units={name: tuple(dict.fromkeys(unit for _aspect, unit in aspects_of[name]))
                      for name in base if name in aspects_of},
        method_units={(name, m.sig.name): unit for name, pairs in aspects_of.items()
                      for aspect, unit in pairs for m in aspect.methods},
        sig_units=sig_units,
    )

    for name in base:
        lin = lin_of[name]
        op_sigs: dict[str, tuple[OperationSig, str]] = {}
        for cls in lin:
            for sig, _unit in own_sigs.get(cls, ()):
                op_sigs.setdefault(sig.name, (sig, cls))

        definers: dict[str, list[tuple[str, MethodDef]]] = {}
        for cls in lin:
            for mdef in own_methods.get(cls, ()):
                definers.setdefault(mdef.sig.name, []).append((cls, mdef))

        table: dict[str, tuple[tuple[str, MethodDef], ...]] = {
            op: tuple(entries) for op, entries in definers.items()
        }
        renamed: dict[str, set[str]] = {}  # operation -> the classes renamings took it from
        for aspect, unit_name in aspects_of.get(name, ()):
            for rename in aspect.renamings:
                table = _apply_renaming(name, rename, unit_name, table, lin, lin_of, definers,
                                        sink)
                renamed.setdefault(rename.op_name, set()).update(lin_of.get(rename.from_class, ()))
        # a renamed-away name keeps the signature of the body it still runs,
        # or of a class no renaming took it from, so that calls are checked
        # against what runs
        for op, gone in renamed.items():
            owners = [table[op][0][0]] if op in table else [c for c in lin if c not in gone]
            sig = next(((s, c) for c in owners for s, _u in own_sigs.get(c, ()) if s.name == op),
                       None)
            if sig is not None:
                op_sigs[op] = sig
            else:
                op_sigs.pop(op, None)
        for op, entries in table.items():
            if op not in op_sigs and entries:
                owner0, mdef0 = entries[0]
                renamed_sig = OperationSig(op, mdef0.sig.params, mdef0.sig.return_type,
                                           mdef0.sig.pos)
                op_sigs[op] = (renamed_sig, owner0)
                sig_units[(owner0, op)] = woven.method_units[(owner0, mdef0.sig.name)]

        ambiguous = frozenset(
            op for op, entries in table.items() if _is_ambiguous(entries, lin_of)
        )

        wc = WovenClass(
            name=name,
            is_abstract=base[name][0].is_abstract,
            supertypes=graph[name],
            linearization=lin,
            op_sigs=op_sigs,
            base_sig_names=frozenset(s.name for s in base[name][0].operations),
            method_table=table,
            raw_definers={op: tuple(entries) for op, entries in definers.items()},
            ambiguous_ops=ambiguous,
            slots=slots_of[name],
        )
        wc.flat_invariants, wc.flat_pre, wc.flat_post = flatten_contracts(lin, aspects_of)
        woven.classes[name] = wc
    if sink:
        order = {unit.source_unit: i for i, unit in enumerate(units)}
        raise CompositionError(sorted(sink.items, key=lambda d: (order[d.unit], d.pos)))
    return woven


def _apply_renaming(
    class_name: str,
    rename: Renaming,
    unit_name: str,
    table: dict[str, tuple[tuple[str, MethodDef], ...]],
    lin: tuple[str, ...],
    lin_of: dict[str, tuple[str, ...]],
    definers: dict[str, list[tuple[str, MethodDef]]],
    sink: DiagnosticSink,
) -> dict[str, tuple[tuple[str, MethodDef], ...]]:
    """``table`` with one renaming applied; a renaming that cannot apply is
    reported to ``sink`` and leaves ``table`` as it is."""
    source_lin = lin_of.get(rename.from_class)
    problem = None
    if rename.from_class not in lin[1:]:
        problem = f"{rename.from_class} is not a supertype of {class_name}"
    else:
        renamed_chain = tuple(
            (owner, mdef)
            for owner in source_lin
            for d_owner, mdef in definers.get(rename.op_name, ())
            if d_owner == owner
        )
        if not renamed_chain:
            problem = f"{rename.from_class} does not provide operation {rename.op_name}"
        elif rename.new_name in table:
            problem = f"{class_name} already has an operation named {rename.new_name}"
    if problem:
        sink.add("RenameTargetMissing", f"cannot rename {rename.op_name} from "
                 f"{rename.from_class} as {rename.new_name}: {problem}", rename.pos, unit_name)
        return table
    table = dict(table)
    table[rename.new_name] = renamed_chain
    remaining = tuple(
        (owner, mdef) for owner, mdef in table[rename.op_name] if owner not in source_lin
    )
    if remaining:
        table[rename.op_name] = remaining
    else:
        del table[rename.op_name]
    return table


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _named_types(t: SemType):
    if t.kind == "class":
        yield t.name
    elif t.kind == "coll" and t.elem is not None:
        yield from _named_types(t.elem)


def _check_params(sig: OperationSig, where: str, unit: str, sink: DiagnosticSink) -> None:
    names = [p.name for p in sig.params]
    if len(names) != len(set(names)):
        sink.add("DuplicateParam", f"operation {where} repeats a parameter name", sig.pos, unit)


def validate_woven(woven: WovenModel) -> list[Diagnostic]:
    """The rules a composed model meets beyond weaving: well-formed
    linearizations and, for each feature and signature, checked once at its
    declaring class whichever unit declares it, bounds of 1 or ``*``, known
    classes, mutual opposites that target each other's declaring class and
    are not both containments, and no repeated parameter name."""
    sink = DiagnosticSink("<woven>")
    known = set(woven.classes) | {ROOT_CLASS}
    for name, wc in woven.classes.items():
        if not wc.linearization or wc.linearization[0] != name:
            sink.add("BadLinearization", f"linearization of {name} must start with itself")
        if wc.linearization[-1] != ROOT_CLASS:
            sink.add("BadLinearization", f"linearization of {name} must end with the root")
        if len(set(wc.linearization)) != len(wc.linearization):
            sink.add("BadLinearization", f"linearization of {name} repeats a class")
        for sup in wc.supertypes:
            if wc.linearization.count(sup) != 1:
                sink.add(
                    "BadLinearization",
                    f"supertype {sup} of {name} must occur exactly once in the linearization",
                )
        # each feature and signature is checked once, at its declaring
        # class; attribute types are primitive: parse_attribute refuses any other
        for fname, sp in wc.slots.items():
            feat = sp.feat
            if sp.owner != name:
                continue
            upper = feat.bounds.upper
            if upper is not None:
                if upper != 1:
                    sink.add("BoundsError", f"{name}.{fname}: upper bound must be 1 or *",
                             feat.pos, sp.unit)
                if feat.bounds.lower > upper:
                    sink.add("BoundsError", f"{name}.{fname}: lower bound exceeds upper bound",
                             feat.pos, sp.unit)
            if not isinstance(feat, Reference):
                continue
            if feat.target not in known:
                sink.add("ClosureError",
                         f"reference {name}.{fname} targets unknown class {feat.target}",
                         feat.pos, sp.unit)
                continue
            if feat.opposite is not None:
                paired = woven.feature(feat.target, feat.opposite)
                opp = paired.feat if paired is not None else None
                if not isinstance(opp, Reference) or opp.opposite != feat.name:
                    sink.add("OppositeMismatch", f"opposites are not mutual for {name}.{fname}",
                             feat.pos, sp.unit)
                elif opp.target != name:
                    sink.add("OppositeMismatch",
                             f"opposite {feat.target}.{feat.opposite} of {name}.{fname} "
                             f"targets {opp.target}, not {name}", feat.pos, sp.unit)
                elif feat.containment and opp.containment:
                    sink.add("ContainmentOpposite",
                             f"containment reference {name}.{fname} has a containment opposite",
                             feat.pos, sp.unit)
        for op, (sig, owner) in wc.op_sigs.items():
            if owner != name:
                continue
            unit = woven.sig_units[(owner, op)]
            for t in list(_named_types(sig.return_type)) + [
                n for p in sig.params for n in _named_types(p.type)
            ]:
                if t not in known:
                    sink.add("ClosureError", f"operation {name}.{op} mentions unknown class {t}",
                             sig.pos, unit)
            _check_params(sig, f"{name}.{op}", unit, sink)
        # a body of an operation its class declares has a signature of its own
        for op, entries in wc.raw_definers.items():
            for owner, mdef in entries:
                if owner == name and mdef.sig is not wc.op_sigs.get(op, (None,))[0]:
                    _check_params(mdef.sig, f"{name}.{op}", woven.method_units[(name, op)], sink)
    return sink.items


# ---------------------------------------------------------------------------
# Composition report
# ---------------------------------------------------------------------------


def emit_report(woven: WovenModel) -> str:
    """Deterministic, human-readable account of the weaving result."""
    rich = [(name, wc) for name, wc in woven.classes.items() if woven.aspect_units.get(name)]
    out = ["composition report", f"package: {woven.package}",
           "base units: " + (", ".join(woven.base_units) or "(none)"),
           f"rich classes: {len(rich)}"]
    for name, wc in rich:
        traits = [f"{name}Aspect<{u}>" for u in woven.aspect_units[name]]
        out += ["", f"Rich{name} = {name}Base with " + " with ".join(traits)]
        if not wc.is_abstract:
            out.append(f"  factory: create{name} -> Rich{name}")
        out.append(f"  convert: {name} <-> Rich{name}")
        out += [f"  convert: {t} -> Rich{name}" for t in traits]
    return "\n".join(out) + "\n"
