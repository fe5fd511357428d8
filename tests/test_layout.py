"""The README's Layout block is kept by hand; this guard keeps it naming
exactly the package's modules."""

from __future__ import annotations

import re

from helpers import REPO


def test_readme_layout_names_every_module():
    readme = (REPO / "README.md").read_text()
    block = re.search(r"^## Layout\n\n```\n(.*?)^```", readme, re.M | re.S).group(1)
    listed = re.findall(r"^  (\w+)\.py\b", block, re.M)
    modules = [p.stem for p in (REPO / "src" / "mashup").glob("*.py")
               if not p.name.startswith("__")]
    assert sorted(listed) == sorted(modules)
