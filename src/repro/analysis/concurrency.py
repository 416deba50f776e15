"""Static fork-safety and thread-discipline lint for :mod:`repro.runtime`.

The sharded engine forks workers (``multiprocessing`` ``"fork"``
context) and then runs reader threads in the parent.  That combination
is safe only under a strict discipline the code comments promise but
nothing enforced until now:

``import-time-thread`` (error)
    A thread started at module import time would exist before *any*
    fork and be silently absent in every child.
``thread-before-fork`` (error)
    Within one function, a ``Thread`` is created before a ``Process``:
    the forked child inherits the lock/queue state of a live thread
    that does not exist in the child — the classic post-fork deadlock.
    The engine starts worker processes first and reader threads after.
``fork-under-lock`` (error)
    A ``Process`` is created inside a ``with <something lock-like>:``
    block; the child snapshots the held lock and any waiter deadlocks.
``sink-delivery-thread`` (error)
    Sink delivery (``_deliver`` / ``_flush_ready``) is reachable from a
    reader-thread target through the class's own method call graph.  A
    target is ``Thread(target=self.X)``, or each method a module-level
    ``Thread(target=f)`` loop calls (the form of a reader loop that holds
    its engine through a weak reference).
    Delivery must stay on the caller's thread so user callbacks never
    race engine internals.
``shared-dict-slot`` (error)
    A method reachable from a reader-thread target (as above) augments a
    shared container slot in place
    (``self.attr[key] += v``) without an enclosing lock-like ``with``
    block.  The read-modify-write races the main thread's reads and
    other writers; route such accumulation through a metrics-registry
    instrument or serialize it under the owning condition variable.

All checks are pure AST (no imports of the linted code), so they also
run against synthetic sources in tests via :func:`lint_source`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .diagnostics import Diagnostic, Severity

__all__ = ["lint_concurrency", "lint_source", "SINK_DELIVERY_METHODS"]

_DOMAIN = "concurrency"

#: Methods that must only ever run on the caller's (user-facing) thread.
SINK_DELIVERY_METHODS = frozenset({"_deliver", "_flush_ready"})

_LOCKY_FRAGMENTS = ("lock", "_cv", "cond", "mutex")


def _diag(rule: str, message: str, file: str, line: int) -> Diagnostic:
    return Diagnostic(
        rule=rule,
        severity=Severity.ERROR,
        message=message,
        file=file,
        line=line,
        domain=_DOMAIN,
    )


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _is_thread_ctor(node: ast.Call) -> bool:
    return _call_name(node) == "Thread"


def _is_process_ctor(node: ast.Call) -> bool:
    return _call_name(node) == "Process"


def _names_in(expr: ast.expr) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _looks_locky(expr: ast.expr) -> bool:
    for name in _names_in(expr):
        lowered = name.lower()
        if any(fragment in lowered for fragment in _LOCKY_FRAGMENTS):
            return True
    return False


def _function_defs(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ----------------------------------------------------------------------
# Per-rule passes
# ----------------------------------------------------------------------
def _check_import_time_threads(tree: ast.Module, file: str) -> List[Diagnostic]:
    """Module-scope ``Thread(...).start()`` — alive before any fork."""
    diagnostics: List[Diagnostic] = []
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                break
            if (
                isinstance(node, ast.Call)
                and _call_name(node) == "start"
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Call)
                and _is_thread_ctor(node.func.value)
            ):
                diagnostics.append(
                    _diag(
                        "import-time-thread",
                        "thread started at module import time; it would be "
                        "alive before any fork and silently absent in every "
                        "forked worker",
                        file,
                        node.lineno,
                    )
                )
    return diagnostics


def _check_thread_before_fork(tree: ast.Module, file: str) -> List[Diagnostic]:
    """Within one function, Thread created before Process is created."""
    diagnostics: List[Diagnostic] = []
    for fn in _function_defs(tree):
        thread_lines: List[int] = []
        process_lines: List[int] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                if _is_thread_ctor(node):
                    thread_lines.append(node.lineno)
                elif _is_process_ctor(node):
                    process_lines.append(node.lineno)
        if thread_lines and process_lines and min(thread_lines) < max(process_lines):
            diagnostics.append(
                _diag(
                    "thread-before-fork",
                    f"{fn.name} creates a Thread (line {min(thread_lines)}) "
                    "before forking a Process (line "
                    f"{max(process_lines)}); forked children inherit the "
                    "locked state of live parent threads — start every "
                    "worker process before the first parent thread",
                    file,
                    min(thread_lines),
                )
            )
    return diagnostics


def _check_fork_under_lock(tree: ast.Module, file: str) -> List[Diagnostic]:
    """``Process(...)`` constructed inside a ``with <lock-like>:`` block."""
    diagnostics: List[Diagnostic] = []

    def visit(node: ast.AST, held: Tuple[str, ...]) -> None:
        if isinstance(node, ast.With):
            locky = [
                item.context_expr
                for item in node.items
                if _looks_locky(item.context_expr)
            ]
            if locky:
                held = held + tuple(
                    sorted(_names_in(locky[0]))[:1] or ("lock",)
                )
        elif isinstance(node, ast.Call) and _is_process_ctor(node) and held:
            diagnostics.append(
                _diag(
                    "fork-under-lock",
                    f"Process created while holding {held[-1]!r}; the forked "
                    "child snapshots the held lock and any of its waiters "
                    "deadlock — fork outside the critical section",
                    file,
                    node.lineno,
                )
            )
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, ())
            else:
                visit(child, held)

    visit(tree, ())
    return diagnostics


def _self_call_graph(cls: ast.ClassDef) -> Dict[str, Set[str]]:
    graph: Dict[str, Set[str]] = {}
    for node in cls.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls: Set[str] = set()
        for call in ast.walk(node):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "self"
            ):
                calls.add(call.func.attr)
        graph[node.name] = calls
    return graph


def _check_sink_delivery(tree: ast.Module, file: str) -> List[Diagnostic]:
    """Delivery methods must be unreachable from reader-thread targets."""
    diagnostics: List[Diagnostic] = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        graph = _self_call_graph(cls)
        for target, line in _thread_targets(cls, tree):
            hit = sorted(_reachable_methods(graph, target) & SINK_DELIVERY_METHODS)
            if hit:
                diagnostics.append(
                    _diag(
                        "sink-delivery-thread",
                        f"reader thread target {cls.name}.{target} can reach "
                        f"sink delivery ({', '.join(hit)}); delivery must stay "
                        "on the caller's thread so user callbacks never race "
                        "engine internals",
                        file,
                        line,
                    )
                )
    return diagnostics


def _thread_targets(cls: ast.ClassDef, tree: ast.Module) -> List[Tuple[str, int]]:
    """Reader-thread entry methods of the threads a class's methods create.

    ``Thread(target=self.X)`` enters ``X``.  ``Thread(target=f)`` with a
    module-level ``f`` (a loop that holds its object weakly) enters every
    method name ``f`` calls on anything, which over-approximates.
    """
    loops = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    targets: List[Tuple[str, int]] = []
    for node in ast.walk(cls):
        if not (isinstance(node, ast.Call) and _is_thread_ctor(node)):
            continue
        for kw in node.keywords:
            value = kw.value
            if kw.arg != "target":
                continue
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
            ):
                targets.append((value.attr, node.lineno))
            elif isinstance(value, ast.Name) and value.id in loops:
                calls = ast.walk(loops[value.id])
                methods = {
                    call.func.attr
                    for call in calls
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                }
                targets.extend((method, node.lineno) for method in sorted(methods))
    return targets


def _reachable_methods(graph: Dict[str, Set[str]], start: str) -> Set[str]:
    reachable: Set[str] = set()
    frontier = [start]
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        frontier.extend(graph.get(name, ()))
    return reachable


def _check_shared_dict_slots(tree: ast.Module, file: str) -> List[Diagnostic]:
    """``self.attr[key] += v`` on a thread-reachable path without a lock."""
    diagnostics: List[Diagnostic] = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        targets = _thread_targets(cls, tree)
        if not targets:
            continue
        graph = _self_call_graph(cls)
        threaded: Set[str] = set()
        for target, _ in targets:
            threaded |= _reachable_methods(graph, target)
        methods = {
            node.name: node
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for name in sorted(threaded & set(methods)):
            diagnostics.extend(_unlocked_slot_augassigns(methods[name], cls, file))
    return diagnostics


def _unlocked_slot_augassigns(
    fn: ast.AST, cls: ast.ClassDef, file: str
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []

    def visit(node: ast.AST, locked: bool) -> None:
        if isinstance(node, ast.With):
            if any(_looks_locky(item.context_expr) for item in node.items):
                locked = True
        elif (
            isinstance(node, ast.AugAssign)
            and not locked
            and isinstance(node.target, ast.Subscript)
            and isinstance(node.target.value, ast.Attribute)
            and isinstance(node.target.value.value, ast.Name)
            and node.target.value.value.id == "self"
        ):
            slot = node.target.value.attr
            diagnostics.append(
                _diag(
                    "shared-dict-slot",
                    f"{cls.name}.{fn.name} runs on a reader thread and "
                    f"augments self.{slot}[...] in place without holding a "
                    "lock; the read-modify-write races other threads — use a "
                    "registry instrument or serialize under the owning "
                    "condition variable",
                    file,
                    node.lineno,
                )
            )
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child is not node:
                continue  # nested defs run on their own caller's thread
            visit(child, locked)

    for stmt in fn.body:
        visit(stmt, False)
    return diagnostics


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lint_source(source: str, filename: str = "<source>") -> List[Diagnostic]:
    """Run every concurrency check against one source text."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [
            _diag(
                "parse-failure",
                f"cannot parse {filename}: {exc.msg}",
                filename,
                exc.lineno or 0,
            )
        ]
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(_check_import_time_threads(tree, filename))
    diagnostics.extend(_check_thread_before_fork(tree, filename))
    diagnostics.extend(_check_fork_under_lock(tree, filename))
    diagnostics.extend(_check_sink_delivery(tree, filename))
    diagnostics.extend(_check_shared_dict_slots(tree, filename))
    return diagnostics


def _runtime_files(root: Optional[Path]) -> Sequence[Path]:
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    return sorted((Path(root) / "runtime").glob("*.py"))


def lint_concurrency(root: Optional[Path] = None) -> List[Diagnostic]:
    """Run the concurrency lint over every ``repro.runtime`` module."""
    from .contracts import _relpath

    diagnostics: List[Diagnostic] = []
    for file in _runtime_files(root):
        try:
            text = file.read_text()
        except OSError:
            continue
        diagnostics.extend(lint_source(text, _relpath(file)))
    return diagnostics
