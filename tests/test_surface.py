"""The library's test-only surface, pinned.

A public top-level function or class of ``povmcomp``, or a public method of
one of its classes, is test-only when no code under ``src/povmcomp`` or
``bench/`` reaches it.  Code names a name as a ``Name`` or as an attribute.
The reach starts at module-level code, at every line of ``bench/`` and at
the dunder methods, which the language calls; a reference inside the body
of a library function or method counts only once that function or method
is reached.  So a name's references from its own body, or from code that
only test-only code reaches, are none.  Three kinds of reference do not
count:

- a string constant: the bench probes name their targets by string, and a
  probe wraps a function but does not call it;
- under ``bench/``, an attribute read of a name that ``bench/`` defines
  itself: ``rec.to_payload()`` calls ``bench/spans.py``'s
  ``Recorder.to_payload``, not the library's;
- comments and the prose of docstrings.

A package ``__init__`` does not count, so a re-export is no reference.  New
library code that only tests call goes into ``TEST_ONLY`` on purpose, and
code that gains a caller leaves it.

Within the library, names are still matched by name alone, so a name can
hide behind a reached library name of the same name.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# each with the ROADMAP item that is to give it a caller; a name that only
# a pinned name's code calls has that name's item
TEST_ONLY = {
    "covering_sweep",  # item 26
    "trace_norm",  # covering_sweep's
    "save_instance",  # items 8 and 11
    "dumps_canonical",  # save_instance's
    "Instance.to_payload",  # items 8 and 11, save_instance's
    "matrix_to_json",  # Instance.to_payload's
    "compose_with_side_information",  # item 14
    "instrument_to_povm",  # item 12
    "Instrument",  # instrument_to_povm's
    "povm_from_elements",  # instrument_to_povm's
    "distribution_power",  # items 4 and 6
    "cq_tensor_power",  # items 4 and 6
    "d_max_smooth",  # item 18
    "d_hyp",  # item 19
    # to be called by the command-line run at its default budget, and by a
    # pinned default-budget run whose links hash (items 7 and 10)
    "budget_from_thresholds",
}


# dataclass fields that only tests read as attributes
TEST_ONLY_FIELDS = set()


def _owned_words(tree: ast.Module, library: bool, foreign: set) -> list:
    """(word, owner) of every identifier a module names in code: a ``Name``
    id, or an ``Attribute`` name not in ``foreign``.  The owner is the
    top-level function or class, or the method of a top-level class, whose
    code holds it, and None at module level and everywhere in a module
    outside the library."""

    def walk(node, owner):
        return [
            (sub.id if isinstance(sub, ast.Name) else sub.attr, owner)
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name)
            or (isinstance(sub, ast.Attribute) and sub.attr not in foreign)
        ]

    out = []
    for top in tree.body:
        if not library or not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            out += walk(top, None)
        elif isinstance(top, ast.FunctionDef):
            out += walk(top, top.name)
        else:
            for part in top.decorator_list + top.bases + top.keywords:
                out += walk(part, top.name)
            for item in top.body:
                out += walk(item, item.name if isinstance(item, ast.FunctionDef) else top.name)
    return out


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
    # the private helpers (dunders exempt), which can be test-only code too
    helpers = [
        item.name
        for path, tree in trees.items()
        if path.is_relative_to(ROOT / "src")
        for node in tree.body
        for item in [node, *(node.body if isinstance(node, ast.ClassDef) else [])]
        if isinstance(item, (ast.FunctionDef, ast.ClassDef))
        and item.name.startswith("_")
        and not item.name.startswith("__")
    ]
    # the names bench/ defines, whose attribute reads there are its own
    bench = {
        node.name
        for path, tree in trees.items()
        if not path.is_relative_to(ROOT / "src")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    refs = [
        ref
        for path, tree in trees.items()
        for ref in (
            _owned_words(tree, True, set())
            if path.is_relative_to(ROOT / "src")
            else _owned_words(tree, False, bench)
        )
    ]
    # a definition is no ast.Name, so a name is reached only by a reference
    # whose owner is a root (None, or a dunder) or is reached itself; grow
    # the reached names until no reached code names another
    names = {name for _, name in public + methods} | set(helpers)
    reached = set()
    while True:
        grown = {word for word, owner in refs if owner not in names or owner in reached}
        if grown == reached:
            break
        reached = grown
    dead = names - reached
    test_only = {label for label, name in public + methods if name in dead}
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


def test_no_module_level_mutable_containers():
    """No library module binds a dict, list or set at module level (a
    literal, a comprehension, or a ``dict``/``list``/``set`` call): a
    module-level container that code fills is shared by every caller in
    the process, so memoisation goes through ``functools`` only."""
    kinds = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    hits = []
    for path in sorted((ROOT / "src/povmcomp").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            called = (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set")
            )
            if isinstance(value, kinds) or called:
                hits.append(f"{path.relative_to(ROOT / 'src').as_posix()}:{node.lineno}")
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


def test_library_never_calls_unique():
    """No library module calls ``np.unique``: its first call raises a
    process's peak memory by about 1.5 MB, which ``peak_rss_mb`` reads."""
    calls = []
    for path in sorted((ROOT / "src/povmcomp").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            named = isinstance(node, ast.Attribute) and node.attr == "unique"
            imported = isinstance(node, ast.ImportFrom) and "unique" in [a.name for a in node.names]
            if named or imported:
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


# the module-level constants that hold a tolerance at or below 1e-5: the
# input contract's slacks and cut-offs in ``linalg`` and the few named
# tolerances of the solvers and protocol steps
SMALL_TOLERANCE_CONSTANTS = 13


def test_small_float_literals_are_named_constants():
    """Every float literal v with 0 < |v| <= 1e-5 in the library is the
    value of a module-level UPPER_CASE constant, so a tolerance is declared
    once and read by name, and the constants that hold one are counted."""
    bare, named = [], []
    for path in sorted((ROOT / "src/povmcomp").rglob("*.py")):
        tree = ast.parse(path.read_text())
        held = set()
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if all(isinstance(t, ast.Name) and t.id.isupper() for t in targets):
                    held |= {id(sub) for sub in ast.walk(node.value)}
                    small = [
                        sub
                        for sub in ast.walk(node.value)
                        if isinstance(sub, ast.Constant)
                        and isinstance(sub.value, float)
                        and 0.0 < abs(sub.value) <= 1e-5
                    ]
                    named += [f"{path.name}:{t.id}" for t in targets] if small else []
        for node in ast.walk(tree):
            small = (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0.0 < abs(node.value) <= 1e-5
            )
            if small and id(node) not in held:
                bare.append(f"{path.relative_to(ROOT / 'src').as_posix()}:{node.lineno}")
    assert bare == []
    assert len(named) == SMALL_TOLERANCE_CONSTANTS, named
