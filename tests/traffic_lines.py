"""Which library statements the pipeline's own traffic reaches, and which
only tier-1 does.

A ``sys.settrace`` line tracer over ``src/povmcomp`` records the lines each
phase runs, in one process:

1. the traffic:
   - each bundled instance at eps 0.1 and 0.01, each at the additive
     constant c of the default, 0 and 2: ``prepare``, ``thresholds``, the
     centralised protocol at ``budget_from_thresholds`` (codebook seed 1),
     ``one_shot_region`` at theta 0.5 and ``iid_region``;
   - the benchmark's timed operations (``bench/workloads.py``), without
     the checks it runs untimed;
   - ``family_sweep``'s ``table``: its pipeline on families 1 and 2 at
     seeds 1-20, under its 60 s alarm;
2. tier-1, through ``pytest.main``.

A traffic call that raises is named with its error, and the run goes on.
A statement is one in the body of a library function or method (nested
ones included), its docstring excepted; a compound statement is its
header.  It counts as reached when a line of it runs.  Per module the
table gives the statements, how many the traffic reaches, how many only
tier-1 reaches and how many neither reaches; the last two groups follow
line by line, module by module.  Library code that only tier-1 reaches is
checked, but it is no part of the pipeline; code that neither reaches is
dead, or guards an input or a numerical case that no run here meets.

Run from the repository root; it takes a few minutes:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/traffic_lines.py
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")]

sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "bench"))

import povmcomp  # noqa: E402

# the library as its code objects name it
LIBRARY = str(Path(povmcomp.__file__).parent)


def traced(fn) -> set:
    """The (file, line) pairs of the library that ``fn()`` runs."""
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(LIBRARY) else None

    sys.settrace(enter)
    try:
        fn()
    finally:
        sys.settrace(None)
    return ran


def statements(path: Path) -> list[tuple[int, range]]:
    """(first line, own lines) of every statement in the body of a function
    or method of the module, its docstring excepted: a simple statement
    owns all its lines, a compound one its header (an ``except`` clause
    is a header too), and a nested ``def`` or ``class`` its decorators and
    ``def`` line, its body counted as a body of its own."""
    out = []

    def block(stmts):
        for stmt in stmts:
            inner = [
                child
                for name in ("body", "orelse", "finalbody", "handlers")
                for child in getattr(stmt, name, [])
            ]
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([stmt.lineno] + [d.lineno for d in stmt.decorator_list])
                out.append((stmt.lineno, range(first, stmt.lineno + 1)))
                continue
            end = min(c.lineno for c in inner) if inner else stmt.end_lineno + 1
            out.append((stmt.lineno, range(stmt.lineno, end)))
            for child in inner:
                if isinstance(child, ast.ExceptHandler):
                    out.append((child.lineno, range(child.lineno, child.body[0].lineno)))
                block(child.body if isinstance(child, ast.ExceptHandler) else [child])

    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False) is not None
            block(node.body[1:] if doc else node.body)
    return sorted(out, key=lambda s: s[0])


def traffic() -> None:
    """The pipeline's own traffic (the module docstring), a call at a time."""
    import family_sweep
    import workloads

    from povmcomp import io
    from povmcomp import protocols as P

    def attempt(label, fn):
        try:
            fn()
        except Exception as err:  # noqa: BLE001 - a raising call is traffic too
            print(f"  {label}: {type(err).__name__}: {err}", flush=True)

    for name in io.BUNDLED:
        for eps in (0.1, 0.01):
            for c in (None, 0.0, 2.0):

                def bundled(name=name, eps=eps, c=c):
                    prep = P.prepare(io.load_bundled(name))
                    P.thresholds(prep, eps, c)
                    budget = P.budget_from_thresholds(prep, eps, log_const=c)
                    P.centralised_protocol(prep, budget, 1, log_const=c)
                    P.one_shot_region(prep, eps, theta_grid=(0.5,), log_const=c)
                    P.iid_region(prep)

                attempt(f"{name} eps {eps} c {c}", bundled)
    for wl in workloads.WORKLOADS.values():
        for op in wl.ops(wl.setup(wl.instances)):
            attempt(f"bench {wl.name} {op.stage}", op.run)
    draws = [(family, seed) for family in (1, 2) for seed in range(1, 21)]
    family_sweep.run(draws, family_sweep.pipeline, 60)


def tier1() -> None:
    import pytest

    code = pytest.main(TIER1)
    print(f"tier-1 exit code {int(code)}", flush=True)


def main() -> None:
    print("traffic:", flush=True)
    ran_traffic = traced(traffic)
    print("tier-1:", flush=True)
    ran_tier1 = traced(tier1)
    rows, tier1_only, neither = [], [], []
    for path in sorted(Path(LIBRARY).rglob("*.py")):
        counts = Counter()
        for line, own in statements(path):
            if any((str(path), n) in ran_traffic for n in own):
                counts["traffic"] += 1
            elif any((str(path), n) in ran_tier1 for n in own):
                counts["tier-1 only"] += 1
                tier1_only.append((path, line))
            else:
                counts["neither"] += 1
                neither.append((path, line))
        if counts:
            rows.append((path.relative_to(LIBRARY).as_posix(), counts))
    rows.append(("total", sum((counts for _, counts in rows), Counter())))
    print(f"\n{'module':<24}{'stmts':>7}{'traffic':>9}{'tier-1 only':>13}{'neither':>9}")
    for label, c in rows:
        print(
            f"{label:<24}{c.total():>7}{c['traffic']:>9}{c['tier-1 only']:>13}{c['neither']:>9}"
        )
    for title, group in (("reached by tier-1 only", tier1_only), ("reached by neither", neither)):
        print(f"\n{title}:")
        for path, line in group:
            text = path.read_text().splitlines()[line - 1].strip()
            print(f"  {path.relative_to(LIBRARY).as_posix()}:{line}  {text}")


if __name__ == "__main__":
    main()
