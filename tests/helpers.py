"""Shared helpers: weave small in-memory unit sets and drive the CLI."""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from mashup.behavior import parse_behavior
from mashup.cli import main as cli_main
from mashup.contracts import parse_contracts
from mashup.exprs import IntV
from mashup.metamodel import parse_metamodel
from mashup.runtime import ModelInstance, add_to_feature, create_instance, set_feature
from mashup.typecheck import build_units

REPO = Path(__file__).resolve().parents[1]
FUML = REPO / "examples" / "fuml-lite"
DIAMOND = REPO / "examples" / "diamond"
CASE2 = REPO / "examples" / "case2"
MODELS = REPO / "examples" / "models"
GOLDEN = Path(__file__).resolve().parent / "golden"


def parse_units(mm=(), inv=(), act=()):
    def listed(x):
        return [x] if isinstance(x, str) else list(x)

    units = []
    for i, text in enumerate(listed(mm)):
        units.append(parse_metamodel(text, f"u{i}.mm"))
    for i, text in enumerate(listed(inv)):
        units.append(parse_contracts(text, f"u{i}.inv"))
    for i, text in enumerate(listed(act)):
        units.append(parse_behavior(text, f"u{i}.act"))
    return units


def weave(mm=(), inv=(), act=(), package=None):
    """Parse unit texts and build them (compose, validate, type check)."""
    return build_units(parse_units(mm, inv, act), package)


# The metamodel the interpreter's tables and the soundness property run on.
# B's Bool, String and many-valued members read as void through ``self.one``
# while it is unset, which is how checked code reaches the dynamic faults.
TABLE_MM = """
metamodel t {
  class A {
    attr n: Int;
    ref kids: B[*] containment;
    ref one: B[0..1];
  }
  class B { attr w: Int; attr ok: Bool; attr s: String; ref kids: B[*]; }
}
"""

# Operations every method body on the table can call; ``show`` makes a value
# visible in the trace through its OpExit event.
TABLE_HELPERS = """
  operation show(v : Int) : Int is do return v end
  operation need(v : Int) : Int is do return v end
  operation twice(v : Int) : Int is do return v + v end
"""

TABLE_HEADER = 'package t;\nrequire "t.mm";\n'


def table_act(body: str, returns: str = "Void") -> str:
    """A behavior unit giving ``A`` the helpers and ``run`` with ``body``."""
    return (TABLE_HEADER + "aspect class A {\n" + TABLE_HELPERS
            + f"  operation run() : {returns} is do\n{body}\n  end\n}}\n")


def table_inv(members: str) -> str:
    """A constraint unit with ``members`` on ``A``."""
    return TABLE_HEADER + "aspect class A {\n" + members + "\n}\n"


def table_model(woven) -> ModelInstance:
    """o1: A with n = 0 and kids o2 (w = 1), o3 (w = 2); ``one`` unset."""
    model = ModelInstance(woven)
    a = create_instance(model, "A")
    for w in (1, 2):
        b = create_instance(model, "B")
        set_feature(model, b, "w", IntV(w))
        add_to_feature(model, a, "kids", b)
    return model


def run_cli(*args: str):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(args))
    return code, out.getvalue(), err.getvalue()


def trace_labels(stdout: str) -> list[str]:
    return [
        line.split("\t", 1)[1]
        for line in stdout.splitlines()
        if line.startswith("NodeExecuted\t")
    ]
