"""Operator/plan contract linter: codebase invariants as executable checks.

The repo's load-bearing conventions — the checkpoint snapshot protocol,
wire-format magic uniqueness, coordinator/worker verb-table sync — were
enforced only by code review until this module.  :func:`lint_contracts` turns each into
a diagnostic-producing check that runs over ``src/repro`` itself (the
CLI gate and the self-lint test), so a future PR that breaks a contract
fails loudly instead of corrupting results quietly.

Checks
------
``stateful-snapshot`` (error)
    An operator's ``__init__`` creates *accumulating* mutable state (an
    empty ``[]``/``{}``/``set()``/``deque()``/``defaultdict`` — state
    that starts empty and grows during processing) but the class
    implements neither ``state_snapshot`` nor ``state_restore``, so a
    checkpoint would silently drop its contents.  Deliberately
    ephemeral operators go on :data:`STATE_ALLOWLIST` with a reason.
``magic-uniqueness`` (error)
    Two wire-format magic byte strings (``RST1``, ``RCK1``, frame
    magics, batch codecs) share a value, or two frame-kind constants in
    :mod:`repro.net.protocol` share a code point.
``verb-sync`` (error)
    The coordinator sends a worker-protocol verb that
    ``ShardRunner.handle`` — the one worker-side dispatcher — does not
    handle, or a verb crossing the transport is missing from the frame
    codec tables.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .diagnostics import Diagnostic, Severity

__all__ = [
    "lint_contracts",
    "lint_operator_classes",
    "lint_magic_registry",
    "lint_verb_tables",
    "STATE_ALLOWLIST",
]

#: Operators allowed to hold accumulating mutable state without the
#: snapshot protocol, with the reason they are exempt.  Keys are
#: ``module.QualName``.
STATE_ALLOWLIST: Dict[str, str] = {
    "repro.rfid.transform_operator.RFIDTransformOperator": (
        "_reference_ids is fixed at construction (shelf-tag ids from the "
        "world), not accumulated during processing; the particle-filter "
        "posterior intentionally lives outside the checkpoint protocol"
    ),
}

_DOMAIN = "contract"

#: Constructors of containers that start empty and accumulate.
_ACCUMULATOR_CALLS = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "OrderedDict", "Counter"}
)


def _diag(rule: str, severity: Severity, message: str, file: str, line: int) -> Diagnostic:
    return Diagnostic(
        rule=rule,
        severity=severity,
        message=message,
        file=file,
        line=line,
        domain=_DOMAIN,
    )


def _repro_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def _relpath(path: Path) -> str:
    """Render a path relative to the repo checkout when possible."""
    path = Path(path).resolve()
    root = _repro_root()
    try:
        return str(Path("src/repro") / path.relative_to(root))
    except ValueError:
        return path.name


# ----------------------------------------------------------------------
# Module / source indexing
# ----------------------------------------------------------------------
class _SourceIndex:
    """Cached ``file → (ast tree, source)`` with class-node lookup."""

    def __init__(self) -> None:
        self._trees: Dict[str, Optional[ast.Module]] = {}

    def tree(self, file: str) -> Optional[ast.Module]:
        if file not in self._trees:
            try:
                source = Path(file).read_text()
                self._trees[file] = ast.parse(source, filename=file)
            except (OSError, SyntaxError):
                self._trees[file] = None
        return self._trees[file]

    def class_node(self, cls: type) -> Tuple[Optional[ast.ClassDef], Optional[str], int]:
        """(ClassDef, rendered file path, line) for a class, best effort."""
        try:
            file = inspect.getsourcefile(cls)
        except TypeError:
            file = None
        if file is None:
            return None, None, 0
        tree = self.tree(file)
        rendered = _relpath(Path(file))
        if tree is None:
            return None, rendered, 0
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == cls.__name__:
                return node, rendered, node.lineno
        return None, rendered, 0


def _import_repro_modules(diagnostics: List[Diagnostic]) -> List:
    """Import every module under ``repro`` (skipping ``__main__`` shims)."""
    import repro

    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        try:
            modules.append(importlib.import_module(info.name))
        except Exception as exc:  # noqa: BLE001 - a broken module is a finding
            diagnostics.append(
                _diag(
                    "import-failure",
                    Severity.ERROR,
                    f"module {info.name} failed to import: {exc!r}",
                    file=info.name.replace(".", "/") + ".py",
                    line=0,
                )
            )
    return modules


def _operator_classes(modules: Iterable) -> List[type]:
    from repro.streams.operators.base import Operator

    seen: Set[type] = set()
    classes: List[type] = []
    for module in modules:
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, Operator)
                and value is not Operator
                and value.__module__ == module.__name__
                and value not in seen
            ):
                seen.add(value)
                classes.append(value)
    return classes


# ----------------------------------------------------------------------
# Operator contracts
# ----------------------------------------------------------------------
def _own_below_operator(cls: type, name: str) -> bool:
    """True when ``name`` is defined on ``cls`` or an ancestor below Operator."""
    from repro.streams.operators.base import Operator

    for base in cls.__mro__:
        if base is Operator:
            return False
        if name in base.__dict__:
            return True
    return False


def _mutable_accumulators(init: ast.FunctionDef) -> List[Tuple[str, int]]:
    """``self.x = <empty container>`` assignments in an ``__init__`` body."""
    found: List[Tuple[str, int]] = []
    for node in ast.walk(init):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if _is_empty_container(value):
                found.append((target.attr, node.lineno))
    return found


def _is_empty_container(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Set)) and not node.elts:
        return True
    if isinstance(node, ast.Dict) and not node.keys:
        return True
    if isinstance(node, ast.Call):
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name in _ACCUMULATOR_CALLS:
            # defaultdict(list) starts empty; list(existing) does not.
            if name in ("defaultdict",):
                return True
            return not node.args and not node.keywords
    return False


def lint_operator_classes(
    classes: Sequence[type],
    state_allowlist: Optional[Dict[str, str]] = None,
    index: Optional[_SourceIndex] = None,
) -> List[Diagnostic]:
    """Run the per-class operator contracts over ``classes``."""
    state_allow = STATE_ALLOWLIST if state_allowlist is None else state_allowlist
    index = index or _SourceIndex()
    diagnostics: List[Diagnostic] = []
    for cls in classes:
        qualname = f"{cls.__module__}.{cls.__qualname__}"
        node, file, line = index.class_node(cls)
        file = file or f"{cls.__module__}.py"

        if node is not None and "__init__" in cls.__dict__:
            init_node = next(
                (
                    child
                    for child in node.body
                    if isinstance(child, ast.FunctionDef) and child.name == "__init__"
                ),
                None,
            )
            if init_node is not None:
                accumulators = _mutable_accumulators(init_node)
                if accumulators and qualname not in state_allow:
                    has_snapshot = _own_below_operator(cls, "state_snapshot")
                    has_restore = _own_below_operator(cls, "state_restore")
                    if not (has_snapshot and has_restore):
                        attrs = ", ".join(sorted({a for a, _ in accumulators}))
                        missing = [
                            name
                            for name, ok in (
                                ("state_snapshot", has_snapshot),
                                ("state_restore", has_restore),
                            )
                            if not ok
                        ]
                        diagnostics.append(
                            _diag(
                                "stateful-snapshot",
                                Severity.ERROR,
                                f"{qualname} accumulates mutable state in "
                                f"__init__ ({attrs}) but does not implement "
                                f"{' / '.join(missing)}; a checkpoint would "
                                "silently drop its contents — implement the "
                                "snapshot protocol or add the class to "
                                "STATE_ALLOWLIST with a reason",
                                file,
                                accumulators[0][1],
                            )
                        )
    return diagnostics


# ----------------------------------------------------------------------
# Wire-format magic registry
# ----------------------------------------------------------------------
def lint_magic_registry(root: Optional[Path] = None) -> List[Diagnostic]:
    """Every ``*MAGIC*`` byte constant and frame-kind code must be unique."""
    root = Path(root) if root is not None else _repro_root()
    diagnostics: List[Diagnostic] = []
    index = _SourceIndex()

    magics: Dict[bytes, Tuple[str, str, int]] = {}
    for file in sorted(root.rglob("*.py")):
        tree = index.tree(str(file))
        if tree is None:
            continue
        rendered = _relpath(file)
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (isinstance(target, ast.Name) and "MAGIC" in target.id.upper()):
                    continue
                if not (
                    isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, bytes)
                ):
                    continue
                value = node.value.value
                if value in magics:
                    prior_name, prior_file, prior_line = magics[value]
                    diagnostics.append(
                        _diag(
                            "magic-uniqueness",
                            Severity.ERROR,
                            f"magic {value!r} ({target.id}) collides with "
                            f"{prior_name} at {prior_file}:{prior_line}; every "
                            "wire format needs a distinct magic",
                            rendered,
                            node.lineno,
                        )
                    )
                else:
                    magics[value] = (target.id, rendered, node.lineno)

    protocol_file = root / "net" / "protocol.py"
    tree = index.tree(str(protocol_file))
    if tree is not None:
        rendered = _relpath(protocol_file)
        kinds: Dict[int, Tuple[str, int]] = {}
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (
                    isinstance(target, ast.Name)
                    and target.id.lstrip("_").isupper()
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, int)
                    and not isinstance(node.value.value, bool)
                ):
                    continue
                value = node.value.value
                if value in kinds:
                    prior_name, prior_line = kinds[value]
                    diagnostics.append(
                        _diag(
                            "magic-uniqueness",
                            Severity.ERROR,
                            f"frame kind {target.id} = {value:#x} collides with "
                            f"{prior_name} (line {prior_line}); frame kinds "
                            "must be pairwise distinct",
                            rendered,
                            node.lineno,
                        )
                    )
                else:
                    kinds[value] = (target.id, node.lineno)
    return diagnostics


# ----------------------------------------------------------------------
# Worker-protocol verb tables
# ----------------------------------------------------------------------
def _function_node(tree: ast.Module, name: str) -> Optional[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _compared_strings(fn: ast.AST) -> Set[str]:
    """String constants compared with ``==`` anywhere inside ``fn``."""
    verbs: Set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Compare):
            continue
        if not all(isinstance(op, ast.Eq) for op in node.ops):
            continue
        for operand in [node.left, *node.comparators]:
            if isinstance(operand, ast.Constant) and isinstance(operand.value, str):
                verbs.add(operand.value)
    return verbs


def _verb_of(node: ast.AST) -> Optional[str]:
    """The leading string of a tuple literal like ``("stats", shard)``."""
    if (
        isinstance(node, ast.Tuple)
        and node.elts
        and isinstance(node.elts[0], ast.Constant)
        and isinstance(node.elts[0].value, str)
    ):
        return node.elts[0].value
    return None


def _tuple_verbs(
    scope: ast.AST, call_names: Set[str]
) -> Dict[str, int]:
    """First-element verb strings of tuple literals passed to ``call_names``.

    Matches both direct calls (``_send(0, ("stop",))``) and calls whose
    argument wraps the tuple in another call
    (``reply(encode_worker_message(("error", ...)))``) — the inner call
    is itself in ``call_names`` and visited by the walk.
    """
    verbs: Dict[str, int] = {}
    for node in ast.walk(scope):
        if not isinstance(node, ast.Call):
            continue
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name not in call_names:
            continue
        for arg in node.args:
            verb = _verb_of(arg)
            if verb is not None:
                verbs.setdefault(verb, node.lineno)
    return verbs


def _returned_tuple_verbs(fn: ast.AST) -> Dict[str, int]:
    verbs: Dict[str, int] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Return):
            verb = _verb_of(node.value)
            if verb is not None:
                verbs.setdefault(verb, node.lineno)
    return verbs


def lint_verb_tables(root: Optional[Path] = None) -> List[Diagnostic]:
    """Coordinator, the worker-side dispatcher and the frame codec must agree on verbs.

    Coordinator-sent verbs are the tuples any ``runtime`` module other
    than ``worker.py`` passes to ``_send`` or ``encode_worker_message``;
    the worker side answers them in ``ShardRunner.handle``.
    """
    root = Path(root) if root is not None else _repro_root()
    index = _SourceIndex()
    diagnostics: List[Diagnostic] = []

    worker_file = root / "runtime" / "worker.py"
    protocol_file = root / "net" / "protocol.py"
    worker_tree = index.tree(str(worker_file))
    protocol_tree = index.tree(str(protocol_file))
    missing = [
        str(f)
        for f, t in ((worker_file, worker_tree), (protocol_file, protocol_tree))
        if t is None
    ]
    if missing:
        return [
            _diag(
                "verb-sync",
                Severity.ERROR,
                f"cannot parse worker-protocol sources: {', '.join(missing)}",
                _relpath(worker_file),
                0,
            )
        ]

    handle_fn = _function_node(worker_tree, "handle")
    encode_fn = _function_node(protocol_tree, "encode_worker_message")
    decode_fn = _function_node(protocol_tree, "decode_worker_message")
    for fn, name, file in (
        (handle_fn, "ShardRunner.handle", worker_file),
        (encode_fn, "encode_worker_message", protocol_file),
        (decode_fn, "decode_worker_message", protocol_file),
    ):
        if fn is None:
            diagnostics.append(
                _diag(
                    "verb-sync",
                    Severity.ERROR,
                    f"{name} not found in {_relpath(file)}; the worker-protocol "
                    "dispatch moved — update repro.analysis.contracts",
                    _relpath(file),
                    0,
                )
            )
    if diagnostics:
        return diagnostics

    handled = _compared_strings(handle_fn)
    encode_verbs = _compared_strings(encode_fn)
    decode_verbs = set(_returned_tuple_verbs(decode_fn))
    replies = _returned_tuple_verbs(handle_fn)
    for verb, line in _tuple_verbs(worker_tree, {"encode_worker_message"}).items():
        replies.setdefault(verb, line)
    sent: Dict[str, Tuple[str, int]] = {}
    calls = {"_send", "encode_worker_message", "_encode_worker_message"}
    for file in sorted((root / "runtime").glob("*.py")):
        tree = index.tree(str(file))
        if file.name == "worker.py" or tree is None:
            continue
        for verb, line in _tuple_verbs(tree, calls).items():
            sent.setdefault(verb, (_relpath(file), line))

    worker_rel = _relpath(worker_file)
    protocol_rel = _relpath(protocol_file)

    for verb, (file, line) in sorted(sent.items()):
        if verb not in handled:
            diagnostics.append(
                _diag(
                    "verb-sync",
                    Severity.ERROR,
                    f"coordinator sends worker verb {verb!r} but ShardRunner.handle "
                    "does not handle it",
                    file,
                    line,
                )
            )
    for verb in sorted((set(sent) | handled) - encode_verbs):
        diagnostics.append(
            _diag(
                "verb-sync",
                Severity.ERROR,
                f"worker verb {verb!r} has no encode_worker_message entry",
                protocol_rel,
                encode_fn.lineno,
            )
        )
    for verb, line in sorted(replies.items()):
        if verb not in decode_verbs:
            diagnostics.append(
                _diag(
                    "verb-sync",
                    Severity.ERROR,
                    f"worker reply verb {verb!r} has no decode_worker_message "
                    "entry; the coordinator could never read it",
                    worker_rel,
                    line,
                )
            )
    return diagnostics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def lint_contracts() -> List[Diagnostic]:
    """Run every contract check over the installed ``repro`` package."""
    diagnostics: List[Diagnostic] = []
    modules = _import_repro_modules(diagnostics)
    index = _SourceIndex()
    diagnostics.extend(lint_operator_classes(_operator_classes(modules), index=index))
    diagnostics.extend(lint_magic_registry())
    diagnostics.extend(lint_verb_tables())
    return diagnostics
