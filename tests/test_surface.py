"""The library's test-only surface, pinned.

A public top-level function or class of ``povmcomp`` is test-only when no
module under ``src/povmcomp`` or ``bench/`` names it anywhere but at its own
definition.  A name counts wherever it appears as a word: in code, in a
string (the bench probes name their targets by string), in a comment or in
a docstring.  A package ``__init__`` does not count, so a re-export is no
reference.  New library code that only tests call goes into ``TEST_ONLY``
on purpose, and code that gains a caller leaves it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TEST_ONLY = {
    "covering_sweep",
    "verify_certificate",
    "save_instance",
    "purified_distance",
    "cdc_qsi",
    "compose_with_side_information",
    "instrument_to_povm",
    "distribution_power",
    "cq_tensor_power",
    "max_law",
}


def test_only_tests_call_the_pinned_names():
    sources = {
        path: path.read_text()
        for folder in ("src/povmcomp", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py"
    }
    public = [
        node.name
        for path, text in sources.items()
        if path.is_relative_to(ROOT / "src")
        for node in ast.parse(text).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert len(public) > 50
    words = Counter(word for text in sources.values() for word in re.findall(r"\w+", text))
    # a name met once is met only at its definition
    test_only = {name for name in public if words[name] == 1}
    assert test_only == TEST_ONLY
