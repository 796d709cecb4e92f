"""The library's test-only surface, pinned.

A public top-level function or class of ``povmcomp``, or a public method of
one of its classes, is test-only when no module under ``src/povmcomp`` or
``bench/`` names it in code: as a name, as an attribute, or as a part of a
string constant that is a dotted name (the bench probes name their targets
by string).  Dunder methods are called by the language, so they are exempt.
Comments and the prose of docstrings are no reference.  A package
``__init__`` does not count, so a re-export is no reference.  New library code that only tests call goes into
``TEST_ONLY`` on purpose, and code that gains a caller leaves it.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TEST_ONLY = {
    "covering_sweep",
    "save_instance",
    "compose_with_side_information",
    "instrument_to_povm",
    "distribution_power",
    "cq_tensor_power",
    # the build's nice test and GOOD sets take stacked trace norms
    "trace_norm_distance",
    # to be called by the command-line run at its default budget, and by a
    # pinned default-budget run whose links hash
    "budget_from_thresholds",
}


# dataclass fields that only tests read as attributes; the run report is
# to read them
TEST_ONLY_FIELDS = {
    "GoodSetCertificate.primed",
    "GoodSetCertificate.prob_good",
    "GoodSetCertificate.op_slack",
    "GoodSetCertificate.eps_used",
    "NPTest.operator",
    "NPTest.achieved_alpha",
    "NPTest.achieved_beta",
}


def _code_names(tree: ast.Module) -> Counter:
    """How often a module's code names each identifier: ``Name`` ids,
    ``Attribute`` names, and the dot-separated parts of every string
    constant that is a dotted name, such as ``"Session.solve"``."""
    words = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words[node.id] += 1
        elif isinstance(node, ast.Attribute):
            words[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value):
                words.update(node.value.split("."))
    return words


def test_only_tests_call_the_pinned_names():
    trees = {
        path: ast.parse(path.read_text())
        for folder in ("src/povmcomp", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py"
    }
    public = [
        (node.name, node.name)
        for path, tree in trees.items()
        if path.is_relative_to(ROOT / "src")
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    methods = [
        (f"{node.name}.{item.name}", item.name)
        for path, tree in trees.items()
        if path.is_relative_to(ROOT / "src")
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]
    assert len(public) > 50 and len(methods) > 50
    words = sum((_code_names(tree) for tree in trees.values()), Counter())
    # a definition is no ast.Name, so a name the code never uses counts 0
    test_only = {label for label, name in public + methods if words[name] == 0}
    assert test_only == TEST_ONLY


def _defaulted_params(tree: ast.Module, module: str):
    """(call name, parameter, positional slot or None, label) of every
    defaulted parameter in a module.

    A method's slots do not count its ``self``/``cls``, and ``__init__`` is
    called by its class's name.  A keyword-only parameter has no slot.
    """

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list
                )
                bound = owner is not None and not static
                call = owner if bound and child.name == "__init__" else child.name
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for slot, arg in enumerate(positional):
                    if slot >= first:
                        label = f"{module}.{owner + '.' if owner else ''}{child.name}({arg.arg})"
                        yield call, arg.arg, slot - bound, label
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield call, arg.arg, None, f"{module}.{child.name}({arg.arg})"
                yield from visit(child, None)
            else:
                yield from visit(child, owner)

    return list(visit(tree, None))


def test_defaults_are_set_by_some_caller():
    """A defaulted parameter of the library is passed by at least one call
    in ``src/``, ``tests/`` or ``bench/``; one that no call passes is a
    constant.  Calls match by name (a class call by its ``__init__``).  A
    starred argument or ``**kwargs`` forwards what its caller got, so it
    passes nothing of its own."""
    passed: dict[str, list[tuple[int, set]]] = {}
    for folder in ("src", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                n_pos = 0
                for arg in node.args:
                    if isinstance(arg, ast.Starred):
                        break
                    n_pos += 1
                keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
                passed.setdefault(name, []).append((n_pos, keywords))
    unset = []
    for path in sorted((ROOT / "src/povmcomp").rglob("*.py")):
        module = path.relative_to(ROOT / "src").with_suffix("").as_posix().replace("/", ".")
        for call, param, slot, label in _defaulted_params(ast.parse(path.read_text()), module):
            if not any(
                param in keywords or (slot is not None and n_pos > slot)
                for n_pos, keywords in passed.get(call, [])
            ):
                unset.append(label)
    assert unset == []


def test_modules_use_their_imports():
    """Every name a library module imports is read somewhere in that module
    (a package ``__init__`` re-exports, so it does not count)."""
    unused = []
    for path in sorted((ROOT / "src/povmcomp").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = [
            (alias.asname or alias.name.split(".")[0], node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported if name not in read]
    assert unused == []


def test_parameters_are_read():
    """Every parameter of a library function is read in its body, nested
    functions included; ``self`` and ``cls`` are exempt.  A parameter that
    nothing reads is a name its callers fill for nothing."""
    unread = []
    for path in sorted((ROOT / "src/povmcomp").rglob("*.py")):
        module = path.relative_to(ROOT / "src").with_suffix("").as_posix().replace("/", ".")
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                f"{module}.{node.name}({p})"
                for p in params
                if p not in read and p not in ("self", "cls")
            ]
    assert unread == []


def _is_dataclass(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.id if isinstance(decorator, ast.Name) else getattr(decorator, "attr", None)
    return name == "dataclass"


def _attributes_read(*folders: str) -> set:
    """Every attribute name read (``obj.name`` in a load) under ``folders``."""
    return {
        node.attr
        for folder in folders
        for path in sorted((ROOT / folder).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _dataclass_fields() -> list:
    """(class name, field name) of every field of a library dataclass."""
    return [
        (cls.name, stmt.target.id)
        for path in sorted((ROOT / "src/povmcomp").rglob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef) and any(_is_dataclass(d) for d in cls.decorator_list)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def test_dataclass_fields_are_read():
    """Every field of a library dataclass is read as an attribute
    (``obj.field``) somewhere in ``src/``, ``tests/`` or ``bench/``.  The
    match is by name alone, so any attribute read of that name counts."""
    read = _attributes_read("src", "tests", "bench")
    unread = [f"{cls}.{name}" for cls, name in _dataclass_fields() if name not in read]
    assert unread == []


def test_only_tests_read_the_pinned_fields():
    """The dataclass fields that no attribute read in ``src/`` or ``bench/``
    names are exactly ``TEST_ONLY_FIELDS``; ``test_dataclass_fields_are_read``
    sees that tests read them."""
    read = _attributes_read("src", "bench")
    test_only = {f"{cls}.{name}" for cls, name in _dataclass_fields() if name not in read}
    assert test_only == TEST_ONLY_FIELDS


def test_protocol_steps_do_not_branch_on_link_names():
    """No comparison in ``compress``, ``compose`` or ``regions`` names the
    link ``"X"`` or ``"Y"``: each per-link step is written once, indexed by
    link position.  In all of ``src/``, only ``AdversaryScenario`` reads its
    per-link flags ``x_link_on``/``y_link_on``; every other step takes the
    kept links from its ``links``."""
    hits = []
    for name in ("compress.py", "compose.py", "regions.py"):
        tree = ast.parse((ROOT / "src/povmcomp/protocols" / name).read_text())
        hits += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(
                isinstance(side, ast.Constant) and side.value in ("X", "Y")
                for side in (node.left, *node.comparators)
            )
        ]
    for path in sorted((ROOT / "src/povmcomp").rglob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "AdversaryScenario"
            for node in ast.walk(cls)
        }
        hits += [
            f"{path.name}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("x_link_on", "y_link_on")
            and id(node) not in inside
        ]
    assert hits == []


def test_library_never_imports_scipy():
    """Importing every library module leaves scipy unloaded: scipy is a test
    extra only, and loading ``scipy.linalg`` about doubles a run's peak
    memory."""
    code = (
        "import pkgutil, sys, povmcomp, povmcomp.protocols\n"
        "for mod in pkgutil.walk_packages(povmcomp.__path__, 'povmcomp.'):\n"
        "    __import__(mod.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
