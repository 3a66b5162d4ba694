"""The initial ``rlelint`` rule set — grounded in this codebase.

The rules encode the repository's correctness conventions as checks:

``RLE001`` bare-assert-invariant
    The paper's register invariants (Theorem 1, Corollary 1.1) must not
    be guarded by ``assert`` — it vanishes under ``python -O``.  Raise
    :class:`~repro.errors.InvariantViolation` instead.  *Type-narrowing*
    asserts (``assert isinstance(x, T)``, ``assert x is not None``, and
    ``and``-conjunctions of those) are exempt: they assist mypy and
    guard programmer errors, not data-dependent invariants.

``RLE002`` typed-exceptions
    Library code must raise :class:`~repro.errors.ReproError` subclasses,
    never bare ``ValueError``/``RuntimeError``, so callers can catch
    everything coming out of the package with one ``except`` clause.

``RLE003`` no-hot-path-decompression
    Hot-path modules (``core/``, ``systolic/``, ``rle/ops*.py``) must
    never materialize pixel arrays — the RLE speed advantage evaporates
    the moment code silently falls back to bitmaps (Ehrensperger et al.;
    Breuel).  Bans calls to the decompression helpers and any import of
    :mod:`repro.rle.bitmap`, outside a reviewed allowlist.

``RLE004`` int32-overflow-guard
    ``np.int32`` coordinate planes are only legal behind the overflow
    guard pattern of ``core/batched.py`` (dtype chosen by comparing the
    maximum coordinate against ``2**31`` / ``np.iinfo``); an unguarded
    ``np.int32`` silently wraps on multi-gigapixel rows.

``RLE005`` no-mutable-shared-state
    Mutable default arguments, and module-level mutable literals bound
    to lowercase names, are banned: the shard workers of
    ``service/shard.py`` are forked from the front-end, and mutable
    module state silently diverges between parent and workers.  Dunder names (``__all__``)
    and ``UPPER_CASE`` constants-by-convention are exempt.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.lint.model import ModuleContext, Rule, Violation, register

__all__ = [
    "HOT_PATH_PREFIXES",
    "HOT_PATH_GLOBS",
    "DECOMPRESSION_ALLOWLIST",
    "DECOMPRESSION_CALLS",
    "is_hot_path",
]

# --------------------------------------------------------------------- #
# Module classification                                                 #
# --------------------------------------------------------------------- #

#: Directories (package-relative) whose modules are hot paths.  ``obs/``
#: is included because its helpers (counter bumps, span bookkeeping,
#: per-step probes) run inside the engines' step loops — an accidental
#: decompression there would silently dominate every instrumented run.
#: ``service/`` runs per *request*: fingerprinting and cache lookups sit
#: in front of every engine batch, so a decompression there would undo
#: exactly the O(k) cheapness the cache is built on.
HOT_PATH_PREFIXES: Tuple[str, ...] = ("core/", "systolic/", "obs/", "service/")

#: Individual hot-path modules outside those directories.
HOT_PATH_GLOBS: Tuple[str, ...] = ("rle/ops*.py",)

#: Hot-path modules allowed to decompress anyway, with a reviewed reason:
#: the trace verifier replays certificates off-line, where materializing
#: pixel rows to cross-check a result is the whole point.
DECOMPRESSION_ALLOWLIST = frozenset({"core/verifier.py"})

#: Names whose *call* constitutes decompression (methods or functions).
DECOMPRESSION_CALLS = frozenset({"to_bits", "to_bitmap", "runs_to_bits", "unpackbits"})

#: The bitmap conversion module itself — importing it from a hot path is
#: banned outright (both spellings).
_BITMAP_MODULE = "repro.rle.bitmap"


def is_hot_path(rel_path: str) -> bool:
    """True if the package-relative path is a hot-path module."""
    if rel_path.startswith(HOT_PATH_PREFIXES):
        return True
    return any(fnmatch(rel_path, pattern) for pattern in HOT_PATH_GLOBS)


# --------------------------------------------------------------------- #
# RLE001                                                                #
# --------------------------------------------------------------------- #
def _is_narrowing_assert(test: ast.expr) -> bool:
    """Type-narrowing forms exempt from RLE001."""
    if isinstance(test, ast.Call):
        return isinstance(test.func, ast.Name) and test.func.id == "isinstance"
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        is_identity = isinstance(test.ops[0], (ast.Is, ast.IsNot))
        against_none = (
            isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        )
        return is_identity and against_none
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return all(_is_narrowing_assert(value) for value in test.values)
    return False


@register
class BareAssertRule(Rule):
    code = "RLE001"
    name = "bare-assert-invariant"
    description = (
        "invariant checks must raise InvariantViolation, not assert "
        "(asserts vanish under python -O; isinstance/is-None narrowing is exempt)"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert) and not _is_narrowing_assert(node.test):
                yield module.violation(
                    self,
                    node,
                    "bare assert guards a runtime invariant and vanishes under "
                    "python -O; raise InvariantViolation(name, detail) instead",
                )


# --------------------------------------------------------------------- #
# RLE002                                                                #
# --------------------------------------------------------------------- #
_BANNED_EXCEPTIONS = ("ValueError", "RuntimeError")


@register
class TypedExceptionRule(Rule):
    code = "RLE002"
    name = "typed-exceptions"
    description = (
        "library code raises ReproError subclasses (SystolicError, "
        "GeometryError, ...), never bare ValueError/RuntimeError"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name: Optional[str] = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in _BANNED_EXCEPTIONS:
                yield module.violation(
                    self,
                    node,
                    f"raises bare {name}; raise a ReproError subclass from "
                    "repro.errors so callers can catch the package's failures "
                    "with one except clause",
                )


# --------------------------------------------------------------------- #
# RLE003                                                                #
# --------------------------------------------------------------------- #
@register
class HotPathDecompressionRule(Rule):
    code = "RLE003"
    name = "no-hot-path-decompression"
    description = (
        "hot-path modules (core/, systolic/, rle/ops*.py) must stay in the "
        "RLE domain: no to_bits/to_bitmap/runs_to_bits/unpackbits calls and "
        "no repro.rle.bitmap imports outside the allowlist"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        rel = module.rel_path
        if not is_hot_path(rel) or rel in DECOMPRESSION_ALLOWLIST:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == _BITMAP_MODULE:
                        yield module.violation(
                            self, node, "imports repro.rle.bitmap on a hot path"
                        )
            elif isinstance(node, ast.ImportFrom):
                imported = node.module or ""
                if imported == _BITMAP_MODULE or (
                    imported == "repro.rle"
                    and any(alias.name == "bitmap" for alias in node.names)
                ):
                    yield module.violation(
                        self, node, "imports repro.rle.bitmap on a hot path"
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                called: Optional[str] = None
                if isinstance(func, ast.Attribute):
                    called = func.attr
                elif isinstance(func, ast.Name):
                    called = func.id
                if called in DECOMPRESSION_CALLS:
                    yield module.violation(
                        self,
                        node,
                        f"calls {called}() on a hot path — decompressing to a "
                        "pixel array forfeits the paper's O(k) advantage; keep "
                        "the computation in the RLE domain or move it off the "
                        "hot path",
                    )


# --------------------------------------------------------------------- #
# RLE004                                                                #
# --------------------------------------------------------------------- #
def _is_int32_reference(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == "int32":
        return isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    return False


def _is_overflow_guard(node: ast.AST) -> bool:
    """``2**31`` appearing in an expression, or an ``iinfo`` call."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return (
            isinstance(node.left, ast.Constant)
            and node.left.value == 2
            and isinstance(node.right, ast.Constant)
            and node.right.value == 31
        )
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr == "iinfo"
        if isinstance(func, ast.Name):
            return func.id == "iinfo"
    return False


_FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


@register
class Int32OverflowRule(Rule):
    code = "RLE004"
    name = "int32-overflow-guard"
    description = (
        "np.int32 coordinate planes require the overflow guard pattern of "
        "core/batched.py (dtype gated on max_coord < 2**31 or np.iinfo)"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        # map every node to its innermost enclosing function (None = module
        # scope), then require a guard in the same scope as each int32 use
        scope_of: Dict[ast.AST, Optional[ast.AST]] = {}

        def assign_scopes(node: ast.AST, scope: Optional[ast.AST]) -> None:
            scope_of[node] = scope
            inner = node if isinstance(node, _FunctionNode) else scope
            for child in ast.iter_child_nodes(node):
                assign_scopes(child, inner)

        assign_scopes(module.tree, None)
        guarded_scopes = {
            scope_of[node] for node in ast.walk(module.tree) if _is_overflow_guard(node)
        }
        for node in ast.walk(module.tree):
            if _is_int32_reference(node) and scope_of[node] not in guarded_scopes:
                yield module.violation(
                    self,
                    node,
                    "np.int32 used without an overflow guard in the same "
                    "function — choose the dtype with the max_coord < 2**31 "
                    "pattern (core/batched.py) or use int64",
                )


# --------------------------------------------------------------------- #
# RLE005                                                                #
# --------------------------------------------------------------------- #
_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict"})


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


def _is_constant_name(name: str) -> bool:
    """Dunder names and UPPER_CASE constants-by-convention are exempt."""
    return name.startswith("__") or name.isupper()


def _is_final_annotation(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id == "Final"
    if isinstance(annotation, ast.Subscript):
        return _is_final_annotation(annotation.value)
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "Final"
    return False


@register
class MutableSharedStateRule(Rule):
    code = "RLE005"
    name = "no-mutable-shared-state"
    description = (
        "no mutable default arguments; no module-level mutable literals "
        "bound to lowercase names (fork-based worker pools snapshot module "
        "state — dunder and UPPER_CASE constants are exempt)"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        yield from self._mutable_defaults(module)
        yield from self._module_state(module)

    def _mutable_defaults(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, _FunctionNode):
                continue
            defaults: List[ast.expr] = list(node.args.defaults)
            defaults += [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if _is_mutable_value(default):
                    yield module.violation(
                        self,
                        default,
                        f"mutable default argument in {node.name}() is shared "
                        "across calls (and across forked workers); default to "
                        "None and construct inside the function",
                    )

    def _module_state(self, module: ModuleContext) -> Iterator[Violation]:
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign) and _is_mutable_value(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and not _is_constant_name(
                        target.id
                    ):
                        yield module.violation(
                            self,
                            stmt,
                            f"module-level mutable state {target.id!r} diverges "
                            "silently between parent and forked worker "
                            "processes; rename to UPPER_CASE if it is a "
                            "constant, otherwise move it into a class or "
                            "function",
                        )
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if not _is_mutable_value(stmt.value):
                    continue
                if _is_final_annotation(stmt.annotation):
                    continue
                target = stmt.target
                if isinstance(target, ast.Name) and not _is_constant_name(target.id):
                    yield module.violation(
                        self,
                        stmt,
                        f"module-level mutable state {target.id!r} diverges "
                        "silently between parent and forked worker processes; "
                        "annotate it Final, rename to UPPER_CASE, or move it "
                        "into a class or function",
                    )
