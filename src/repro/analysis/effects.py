"""Static effect inference for arbitrary task callables.

:mod:`repro.analysis.static_conformance` proves the twenty registry
process bodies match their declarations, but it only knows how to walk
the in-tree ``core/processes`` package.  The engine's
:class:`~repro.engine.graph.PipelineBuilder` accepts *arbitrary*
callables as custom tasks, and the graph verifier
(:mod:`repro.analysis.graphlint`) needs their artifact effects too.
This module lifts the same closed-vocabulary AST walk to any Python
function it can get source for:

- the shared name vocabularies (``CONSTANT_IDENTITY``,
  ``NAME_IDENTITY``, ``ACCESSOR_IDENTITY``, ``IO_FUNCS``,
  ``TOOL_EFFECTS``) are imported from the conformance pass, so both
  analyses agree on what every artifact is called;
- a call to a registry entry point (``run_p07(ctx)``) is charged the
  callee's *declared* registry effects — the conformance pass already
  proved those true of the body, so re-walking it would only repeat
  the proof;
- module-level string constants reachable through the callable's
  ``__globals__`` and function-local ``from repro.core.artifacts
  import ...`` aliases both resolve to identities;
- anything the walk cannot resolve is reported as an *unknown* effect,
  never guessed — the verifier downgrades its proof accordingly.

The inference is sound-by-refusal, not complete: a task that shells
out, fans work out to pool workers, or computes file names dynamically
should be declared ``opaque=True`` at the builder, which skips
inference and takes the declared effects on trust (reported as such).
"""

from __future__ import annotations

import ast
import functools
import inspect
import re
import textwrap
from dataclasses import dataclass, field

from repro.analysis.static_conformance import (
    ACCESSOR_IDENTITY,
    CONSTANT_IDENTITY,
    IO_FUNCS,
    NAME_IDENTITY,
    TOOL_EFFECTS,
    TRANSIENT_CONSTANTS,
    TRANSIENT_NAMES,
    TRANSIENT_SUFFIXES,
)
from repro.core.registry import PROCESSES

_RUN_PROCESS_RE = re.compile(r"^run_p(\d{2})$")

#: Expressions that smuggle the whole workspace into a callee we cannot
#: see: the context object itself, or its workspace handle.
_CONTEXT_NAMES = {"ctx", "context", "workspace", "ws"}

#: Attribute names that denote the workspace (or one of its whole
#: directories) in an attribute chain like ``ctx.workspace.root``.
_WORKSPACE_ATTRS = {"workspace", "root", "work_dir", "input_dir", "tmp_dir"}

#: Helper functions with positional artifact-name parameters: function
#: name -> (direction, argument index of the name).
_NAME_ARG_FUNCS: dict[str, tuple[str, int]] = {
    "merge_max_files": ("write", 1),
    "_merge_suffixed": ("write", 2),
    "merge_suffixed": ("write", 2),
}

#: Zero-surprise helpers with fixed effects.
_FIXED_EFFECT_FUNCS: dict[str, list[tuple[str, str]]] = {
    "stations_from_list": [("read", "v1_list")],
}

#: Path/directory bookkeeping methods that touch no artifact content.
_INERT_PATH_METHODS = {
    "mkdir", "exists", "is_file", "is_dir", "iterdir", "rmdir", "resolve",
    "absolute", "relative_to", "with_suffix", "with_name", "joinpath",
    "append", "extend", "add", "items", "keys", "values", "get", "pop",
    "format", "join", "split", "strip", "startswith", "endswith", "lower",
    "upper", "sort", "set_override", "record",
}


@dataclass
class EffectSet:
    """Artifact-identity effects inferred from one callable.

    ``unknowns`` lists every access the walk saw but could not resolve
    to the closed vocabulary; a non-empty list means the set is a lower
    bound, not a proof.
    """

    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)
    deletes: set[str] = field(default_factory=set)
    unknowns: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Whether the walk resolved every access it found."""
        return not self.unknowns

    def all_writes(self) -> set[str]:
        """Writes plus deletes: everything that mutates an artifact."""
        return self.writes | self.deletes

    def charge(self, direction: str, identity: str) -> None:
        {"read": self.reads, "write": self.writes, "delete": self.deletes}[
            direction
        ].add(identity)


def _unwrap(fn):
    """Peel ``functools.partial`` layers and bound-method wrappers."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    return inspect.unwrap(getattr(fn, "__func__", fn))


def _function_node(fn) -> ast.FunctionDef | None:
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError):
        return None
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    return None


class _FunctionWalk:
    """One callable's AST walk; recursion shares the ``seen`` set."""

    def __init__(self, fn, out: EffectSet, seen: set[int]) -> None:
        self.fn = fn
        self.out = out
        self.seen = seen
        self.globals = getattr(fn, "__globals__", {}) or {}
        self.constants: dict[str, str] = {}
        self.locals: dict[str, ast.expr] = {}

    # -- resolution ----------------------------------------------------

    def _resolve_name(self, node: ast.expr | None, _depth: int = 0):
        """An expression holding an artifact *file name* -> resolution.

        Returns ``("id", identity)``, ``("unknown", why)``, or ``None``
        for a recognized scratch file.
        """
        if node is None:
            return ("unknown", "missing name argument")
        if _depth > 8:
            return ("unknown", "deeply nested name expression")
        if isinstance(node, ast.Name):
            if node.id in self.constants:
                return ("id", self.constants[node.id])
            if node.id in TRANSIENT_CONSTANTS:
                return None
            value = self.globals.get(node.id)
            if isinstance(value, str):
                if value in NAME_IDENTITY:
                    return ("id", NAME_IDENTITY[value])
                if value in TRANSIENT_NAMES or value.endswith(TRANSIENT_SUFFIXES):
                    return None
            if node.id in CONSTANT_IDENTITY:
                return ("id", CONSTANT_IDENTITY[node.id])
            if node.id in self.locals:
                return self._resolve_name(self.locals[node.id], _depth + 1)
            return ("unknown", f"name bound to {node.id!r}")
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value in NAME_IDENTITY:
                return ("id", NAME_IDENTITY[node.value])
            if node.value in TRANSIENT_NAMES or node.value.endswith(TRANSIENT_SUFFIXES):
                return None
            return ("unknown", f"literal {node.value!r}")
        if isinstance(node, ast.JoinedStr):
            return ("unknown", "f-string file name")
        return ("unknown", ast.dump(node)[:60])

    def _resolve_path(self, node: ast.expr | None, _depth: int = 0):
        """An expression holding an artifact *path* -> resolution."""
        if node is None:
            return ("unknown", "missing path argument")
        if _depth > 8:
            return ("unknown", "deeply nested path expression")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr == "work":
                return self._resolve_name(node.args[0] if node.args else None)
            if attr in ACCESSOR_IDENTITY:
                return ("id", ACCESSOR_IDENTITY[attr])
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return self._resolve_name(node.right)
        if isinstance(node, ast.Name) and node.id in self.locals:
            return self._resolve_path(self.locals[node.id], _depth + 1)
        return self._resolve_name(node, _depth)

    def _is_workspace_expr(self, node: ast.expr) -> bool:
        """Does this argument hand the callee the whole workspace?

        True for the context object itself and for attribute chains
        naming the workspace or one of its whole directories
        (``ctx.workspace``, ``ctx.workspace.root``).  Scalar attribute
        chains (``ctx.parallel.workers``) stay false: handing a callee
        a number cannot produce artifact I/O.
        """
        if isinstance(node, ast.Name):
            return node.id in _CONTEXT_NAMES
        if isinstance(node, ast.Attribute):
            if node.attr in _WORKSPACE_ATTRS:
                return True
            if isinstance(node.value, ast.Attribute):
                return self._is_workspace_expr(node.value)
        return False

    # -- the walk ------------------------------------------------------

    def run(self) -> None:
        node = _function_node(self.fn)
        if node is None:
            name = getattr(self.fn, "__qualname__", repr(self.fn))
            self.out.unknowns.append(f"source of {name} is unavailable")
            return
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.ImportFrom) and stmt.module:
                if stmt.module.endswith("artifacts"):
                    for alias in stmt.names:
                        if alias.name in CONSTANT_IDENTITY:
                            bound = alias.asname or alias.name
                            self.constants[bound] = CONSTANT_IDENTITY[alias.name]
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    self.locals[target.id] = stmt.value
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                self._visit_call(call)

    def _charge_resolved(self, direction: str, resolved) -> None:
        if resolved is None:
            return
        kind, value = resolved
        if kind == "id":
            self.out.charge(direction, value)
        else:
            self.out.unknowns.append(f"{direction} of unresolved target ({value})")

    def _visit_call(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            self._visit_name_call(call, func.id)
        elif isinstance(func, ast.Attribute):
            self._visit_method_call(call, func)

    def _visit_name_call(self, call: ast.Call, name: str) -> None:
        match = _RUN_PROCESS_RE.match(name)
        if match and int(match.group(1)) in PROCESSES:
            spec = PROCESSES[int(match.group(1))]
            for ref in spec.reads:
                self.out.reads.add(ref.identity)
            for ref in spec.writes:
                self.out.writes.add(ref.identity)
            return
        if name in IO_FUNCS:
            direction, intrinsic = IO_FUNCS[name]
            resolved = self._resolve_path(call.args[0] if call.args else None)
            if resolved is not None and resolved[0] != "id" and intrinsic is not None:
                resolved = ("id", intrinsic)
            self._charge_resolved(direction, resolved)
            return
        if name in TOOL_EFFECTS:
            for direction, identity in TOOL_EFFECTS[name]:
                self.out.charge(direction, identity)
            return
        if name in _NAME_ARG_FUNCS:
            direction, position = _NAME_ARG_FUNCS[name]
            arg = call.args[position] if len(call.args) > position else None
            self._charge_resolved(direction, self._resolve_name(arg))
            return
        if name in _FIXED_EFFECT_FUNCS:
            for direction, identity in _FIXED_EFFECT_FUNCS[name]:
                self.out.charge(direction, identity)
            return
        if name in ("write_tool_config", "read_tool_config", "partial", "print"):
            if name == "partial" and call.args and isinstance(call.args[0], ast.Name):
                self._recurse(call.args[0].id, call)
            return
        self._recurse(name, call)

    def _recurse(self, name: str, call: ast.Call) -> None:
        """Follow a call into another Python function when possible."""
        target = self.globals.get(name)
        if target is not None and inspect.isfunction(target):
            key = id(getattr(target, "__code__", target))
            if key not in self.seen:
                self.seen.add(key)
                _FunctionWalk(target, self.out, self.seen).run()
            return
        # Not followable: only worrying if it receives the workspace.
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if self._is_workspace_expr(arg):
                self.out.unknowns.append(
                    f"call to {name}(...) passes the workspace to unanalyzable code"
                )
                return

    def _visit_method_call(self, call: ast.Call, func: ast.Attribute) -> None:
        attr = func.attr
        if attr == "require_input":
            self.out.reads.add("raw_v1")
            return
        if attr == "glob":
            pattern = ""
            if call.args and isinstance(call.args[0], ast.Constant):
                pattern = str(call.args[0].value)
            receiver = func.value
            if (
                isinstance(receiver, ast.Attribute)
                and receiver.attr == "input_dir"
                and pattern.endswith(".v1")
            ):
                self.out.reads.add("raw_v1")
                return
            if pattern.endswith(TRANSIENT_SUFFIXES):
                return
            self.out.unknowns.append(f"read of unresolved target (glob({pattern!r}))")
            return
        if attr in ("write_text", "write_bytes", "touch", "rename"):
            self._charge_resolved("write", self._resolve_path(func.value))
            return
        if attr in ("read_text", "read_bytes"):
            self._charge_resolved("read", self._resolve_path(func.value))
            return
        if attr == "unlink":
            resolved = self._resolve_path(func.value)
            if resolved is not None and resolved[0] == "id":
                self.out.deletes.add(resolved[1])
            elif resolved is not None:
                self.out.unknowns.append(
                    f"delete of unresolved target ({resolved[1]})"
                )
            return
        if attr in _INERT_PATH_METHODS or attr in ACCESSOR_IDENTITY or attr == "work":
            return
        # An unknown method that swallows the workspace is a blind spot.
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if self._is_workspace_expr(arg):
                self.out.unknowns.append(
                    f"method call .{attr}(...) passes the workspace to "
                    "unanalyzable code"
                )
                return


def infer_effects(fn) -> EffectSet:
    """Infer the artifact effects of one task callable.

    Accepts plain functions, bound methods and ``functools.partial``
    wrappers (pre-bound arguments are ignored — only the body is
    walked).  Never raises on unanalyzable input; the failure mode is
    an :class:`EffectSet` whose ``unknowns`` explain what could not be
    resolved.
    """
    target = _unwrap(fn)
    out = EffectSet()
    seen = {id(getattr(target, "__code__", target))}
    _FunctionWalk(target, out, seen).run()
    return out
