"""Language workbench composing three concern-specific meta-languages.

A DSL is built from a metamodel unit (abstract syntax, ``.mm``), a
constraint unit (static semantics, ``.inv``) and a behavior unit
(operational semantics, ``.act``); a manifest (``.mashup``) lists the units
and the composer weaves the open-class aspects into one executable class
table that a model interpreter runs directly.
"""

from .behavior import AspectUnit, parse_behavior
from .composer import (
    MashupManifest, WovenClass, WovenModel, compose, emit_report, flatten_contracts,
    linearize, parse_manifest, resolve_method_conflicts, resolve_requires, validate_woven,
)
from .contracts import parse_contracts
from .diagnostics import (
    CompositionError, ContractViolation, Diagnostic, EvalFault, TypecheckError,
    UnitParseError, WorkbenchError,
)
from .exprs import parse_expr
from .metamodel import Metamodel, parse_metamodel, pretty_print
from .runtime import (
    CheckResult, Interpreter, ModelInstance, add_to_feature,
    check_invariant, check_model, create_instance, eval_expr, invoke,
    load_model, remove_from_feature, save_model, set_feature,
)
from .typecheck import build, build_units, typecheck_expr, typecheck_units

__version__ = "0.1.0"
