"""Repo-specific AST lint rules (the RCxxx family).

The rules encode contracts that ordinary linters cannot see because
they are conventions of *this* codebase:

RC001  Index/search code must route metric evaluations through the
       ``MetricIndex._dist`` / ``_batch_dist`` / ``_segment_dist``
       counting gateway; a raw ``*.distance(...)`` /
       ``*.batch_distance(...)`` / ``*.segmented_distance(...)`` call on
       a metric-like receiver silently bypasses per-query accounting,
       and only ``_segment_dist`` may call ``segmented_distance``.
       Kernel modules (``kernels.py`` / ``*_kernels.py``) are linted in
       *strict mode*: every ``.distance``/``.batch_distance`` call is
       flagged regardless of receiver name, because the vectorized hot
       loops are exactly where a stray uncounted evaluation would skew
       the per-query figures the paper plots.
RC002  Public ``range_search`` / ``knn_search`` methods must accept the
       keyword-only ``stats=`` and ``trace=`` observability arguments.
RC003  Observation events (``obs.distance()``, ``obs.prune()``, ...)
       must sit under an ``obs is not None`` guard — ``make_observation``
       returns ``None`` when observability is off.
RC004  Recursive node-walking functions must carry a docstring noting
       why the recursion depth is bounded (tree height / stack note).
RC005  numpy scalars must not leak through API boundaries: scalar
       ``argmax``/``argmin`` results need ``int(...)`` coercion and
       ``Neighbor(...)`` built from array subscripts needs
       ``float(...)``/``int(...)``.
RC006  Every concrete :class:`~repro.indexes.base.MetricIndex` subclass
       must be exported through a package ``__all__`` registry so the
       evaluation helpers and CLI can reach it.
RC007  Fuzzing code (``src/repro/fuzz/``) must stay reproducible: no
       unseeded ``default_rng()``, no stdlib ``random`` module, no
       clock reads (``time.time``/``datetime.now``), no ``os.urandom``
       and no salted builtin ``hash()`` — same seed must mean same
       case bytes, forever.
RC008  Serving/resilience code (``src/repro/serve/``,
       ``src/repro/resilience/``) must not swallow exceptions: every
       ``except`` handler has to re-raise, route the failure into the
       breaker/failover machinery (``record_failure``,
       ``set_exception``, ...), or increment a counter — a silently
       dropped exception hides an outage from health tracking.
RC009  Modules inherited by forked serving workers (the library
       packages a built index or the serving stack imports) must not
       create fork-unsafe state at import time: a module- or class-level
       ``threading.Lock()``, ``open(...)`` handle, ``mmap.mmap()`` /
       ``np.memmap()`` mapping, socket, or executor pool is snapshotted
       by ``fork`` in an unknown condition — a lock held by another
       parent thread deadlocks every child, handles share file offsets,
       a shared mapping never notices a rebuilt store, and pool threads
       simply do not exist in the child.  Create such state lazily, per
       instance, inside functions.
RC010  Lock-guarded attributes (``# guarded-by:`` annotated, or
       inferred from writes under ``with self._lock:``) must never be
       touched outside the lock — see :mod:`repro.check.concurrency`.
RC011  The interprocedural lock acquisition-order graph must be
       acyclic (cycles are potential deadlocks).
RC012  Blocking calls (``time.sleep``, ``Future.result``,
       ``acquire``/``wait``/``join``, metric evaluations) must not run
       while a lock is held.
RC013  Budget-accepting functions in :mod:`repro.approx` and kernel
       modules must route every metric evaluation through the
       ``_dist``/``_batch_dist`` counting gateway — a raw
       ``.distance()``/``.batch_distance()`` call spends distances the
       budget cap and the ``ApproxReport.spent`` field never see.

Findings can be silenced per line (or from the preceding line) with a
ruff-style pragma::

    some_call()  # repro-check: ignore[RC001] why it is fine

*Block-scoped* rules (RC010-RC012) additionally honour a pragma on the
enclosing ``with``/``def``/``class`` header — one comment covers the
whole block.  An unknown rule code inside an ignore pragma is itself a
finding (RC000): a typo in a suppression would otherwise silently
suppress nothing, forever.

``run_lint`` is the programmatic entry point; the CLI lives in
:mod:`repro.check.cli`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

_PRAGMA = re.compile(r"#\s*repro-check:\s*ignore\[([A-Za-z0-9_,\s]+)\]")

#: Observation event methods (see ``repro.obs.trace.Observation``).
_OBS_EVENTS = {
    "distance",
    "enter_internal",
    "enter_internals",
    "enter_leaf",
    "enter_leaves",
    "prune",
    "filter_points",
    "leaf_scan",
    "leaf_scans",
}

#: Names conventionally bound to ``make_observation(...)`` results.
_OBS_NAMES = {"obs", "query_obs", "observation"}

#: Docstring evidence that a recursive walk thought about stack depth.
_RECURSION_NOTE = re.compile(r"recursi|stack depth", re.IGNORECASE)


@dataclass(frozen=True, order=True)
class LintFinding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class SourceFile:
    """A parsed module: AST with parent links plus pragma suppressions."""

    def __init__(self, path: Path, root: Optional[Path] = None):
        self.path = path
        self.display = str(
            path.relative_to(root) if root and path.is_relative_to(root) else path
        )
        self.source = path.read_text()
        self.tree = ast.parse(self.source, filename=str(path))
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                child._rc_parent = node  # type: ignore[attr-defined]
        self.suppressions: dict[int, set[str]] = {}
        for lineno, line in enumerate(self.source.splitlines(), start=1):
            match = _PRAGMA.search(line)
            if match:
                codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
                self.suppressions.setdefault(lineno, set()).update(codes)

    def suppressed(self, code: str, line: int) -> bool:
        """True when ``code`` is ignored on ``line`` or the line above."""
        for candidate in (line, line - 1):
            codes = self.suppressions.get(candidate)
            if codes and (code in codes or "all" in codes):
                return True
        return False

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return getattr(node, "_rc_parent", None)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)


class Rule:
    """One per-file lint rule; subclasses yield ``(node, message)``."""

    code: str = ""
    description: str = ""
    #: Block-scoped rules honour an ignore pragma on the enclosing
    #: ``with``/``def``/``class`` header, not just the finding's line.
    block_scoped: bool = False

    def applies_to(self, file: SourceFile) -> bool:
        return True

    def check(self, file: SourceFile) -> Iterator[tuple[ast.AST, str]]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule needing the whole file set (cross-module registry checks)."""

    def check_project(
        self, files: Sequence[SourceFile]
    ) -> Iterator[tuple[SourceFile, ast.AST, str]]:
        raise NotImplementedError


def _receiver_name(func: ast.Attribute) -> Optional[str]:
    """Terminal identifier of the attribute receiver (``a.b.c`` -> c)."""
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


def _enclosing_functions(file: SourceFile, node: ast.AST) -> Iterator[ast.AST]:
    for ancestor in file.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield ancestor


#: Metric evaluation methods RC001 checks, each with the one gateway
#: allowed to call it.
_METRIC_CALLS = {
    "distance": "_dist",
    "batch_distance": "_batch_dist",
    "segmented_distance": "_segment_dist",
}

#: Modules holding vectorized search hot loops; RC001 strict scope.
_KERNEL_MODULE = re.compile(r"(^|/)([a-z0-9_]+_)?kernels\.py$")


class RawMetricCallRule(Rule):
    """RC001: raw metric calls in index code bypass distance counting.

    Kernel modules get *strict mode*: the receiver-name heuristic is
    dropped and any ``.distance``/``.batch_distance`` call outside the
    gateway helpers is a finding, whatever it is called on.
    """

    code = "RC001"
    description = (
        "metric.distance/batch_distance/segmented_distance called directly "
        "in index code; route through MetricIndex._dist/_batch_dist/"
        "_segment_dist so per-query stats stay equal to the true metric "
        "evaluation count (kernel modules are strict: any receiver counts)"
    )

    def applies_to(self, file: SourceFile) -> bool:
        posix = Path(file.display).as_posix()
        return (
            "/indexes/" in f"/{posix}"
            or "/core/" in f"/{posix}"
            or "/serve/" in f"/{posix}"
            or "/fuzz/" in f"/{posix}"
            or posix.endswith("transforms/filter.py")
        )

    @staticmethod
    def _is_kernel_module(file: SourceFile) -> bool:
        return bool(_KERNEL_MODULE.search(Path(file.display).as_posix()))

    def check(self, file: SourceFile) -> Iterator[tuple[ast.AST, str]]:
        strict = self._is_kernel_module(file)
        for node in ast.walk(file.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr not in _METRIC_CALLS:
                continue
            receiver = _receiver_name(node.func)
            metric_like = receiver is not None and receiver.lower().endswith(
                "metric"
            )
            if not metric_like and not strict:
                continue
            if any(
                fn.name == _METRIC_CALLS[node.func.attr]
                for fn in _enclosing_functions(file, node)
            ):
                continue  # the call's own gateway
            shown = receiver or "<expr>"
            if strict and not metric_like:
                yield node, (
                    f"kernel module (strict mode): {shown}."
                    f"{node.func.attr}() must route through the _dist/"
                    "_batch_dist counting gateway whatever its receiver "
                    "is named"
                )
            else:
                yield node, (
                    f"raw {shown}.{node.func.attr}() bypasses the _dist/"
                    "_batch_dist counting gateway"
                )


class SearchSignatureRule(Rule):
    """RC002: public search methods must expose stats=/trace= keywords."""

    code = "RC002"
    description = (
        "range_search/knn_search methods must accept keyword-only "
        "stats= and trace= observability arguments"
    )

    def check(self, file: SourceFile) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name not in ("range_search", "knn_search"):
                    continue
                kwonly = {arg.arg for arg in item.args.kwonlyargs}
                missing = sorted({"stats", "trace"} - kwonly)
                if missing:
                    yield item, (
                        f"{node.name}.{item.name} is missing keyword-only "
                        f"argument(s): {', '.join(missing)}"
                    )


def _guards_obs(file: SourceFile, call: ast.Call, name: str) -> bool:
    """True when ``call`` sits under an ``{name} is not None`` guard."""
    child: ast.AST = call
    for ancestor in file.ancestors(call):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False  # reached the function body unguarded
        if isinstance(ancestor, ast.If):
            if child in ancestor.body and _tests_not_none(ancestor.test, name):
                return True
            if child in ancestor.orelse and _tests_is_none(ancestor.test, name):
                return True
        child = ancestor
    return False


def _tests_not_none(test: ast.expr, name: str) -> bool:
    """Recursive over nested BoolOps; depth bounded by test nesting."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_tests_not_none(value, name) for value in test.values)
    return _is_none_compare(test, name, ast.IsNot)


def _tests_is_none(test: ast.expr, name: str) -> bool:
    """Recursive over nested BoolOps; depth bounded by test nesting."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        return any(_tests_is_none(value, name) for value in test.values)
    return _is_none_compare(test, name, ast.Is)


def _is_none_compare(test: ast.expr, name: str, op_type: type) -> bool:
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == name
        and len(test.ops) == 1
        and isinstance(test.ops[0], op_type)
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    )


class UnguardedObservationRule(Rule):
    """RC003: observation events must be guarded by ``is None`` tests."""

    code = "RC003"
    description = (
        "observation event calls must sit under an 'obs is not None' "
        "guard (make_observation returns None when observability is off)"
    )

    def check(self, file: SourceFile) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(file.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr not in _OBS_EVENTS:
                continue
            value = node.func.value
            if not (isinstance(value, ast.Name) and value.id in _OBS_NAMES):
                continue
            if not _guards_obs(file, node, value.id):
                yield node, (
                    f"{value.id}.{node.func.attr}() is not guarded by "
                    f"'{value.id} is not None'"
                )


def _call_targets(caller: ast.AST) -> Iterator[str]:
    """Names of functions ``caller`` may invoke, without entering nested
    function/class scopes (those are separate call-graph nodes)."""
    stack = list(ast.iter_child_nodes(caller))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ) and func.value.id in ("self", "cls"):
                yield func.attr
        stack.extend(ast.iter_child_nodes(node))


class UnboundedRecursionRule(Rule):
    """RC004: recursive walks must document their depth bound."""

    code = "RC004"
    description = (
        "functions on a recursion cycle must carry a docstring noting "
        "the depth/stack bound (e.g. 'depth bounded by the tree height')"
    )

    def check(self, file: SourceFile) -> Iterator[tuple[ast.AST, str]]:
        functions: dict[int, ast.AST] = {}
        for node in ast.walk(file.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[id(node)] = node

        edges: dict[int, set[int]] = {key: set() for key in functions}
        for key, fn in functions.items():
            for target in _call_targets(fn):
                resolved = self._resolve(file, fn, target)
                if resolved is not None:
                    edges[key].add(id(resolved))

        for key, fn in functions.items():
            if self._reaches(edges, key, key):
                docstring = ast.get_docstring(fn) or ""
                if not _RECURSION_NOTE.search(docstring):
                    yield fn, (
                        f"{fn.name} is (mutually) recursive but its "
                        "docstring does not note the recursion depth bound"
                    )

    @staticmethod
    def _reaches(edges: dict[int, set[int]], start: int, goal: int) -> bool:
        seen: set[int] = set()
        stack = list(edges.get(start, ()))
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(edges.get(node, ()))
        return False

    def _resolve(
        self, file: SourceFile, caller: ast.AST, name: str
    ) -> Optional[ast.AST]:
        """Resolve a call target lexically: enclosing class methods for
        ``self.name``/bare siblings, then outer scopes, then module."""
        scopes: list[ast.AST] = [caller]
        scopes.extend(file.ancestors(caller))
        for scope in scopes:
            if isinstance(
                scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Module)
            ):
                for item in scope.body:
                    if (
                        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name == name
                    ):
                        return item
        return None


class NumpyScalarLeakRule(Rule):
    """RC005: numpy scalars must be coerced at API boundaries."""

    code = "RC005"
    description = (
        "scalar argmax/argmin results and Neighbor fields built from "
        "array subscripts need explicit int()/float() coercion"
    )

    def check(self, file: SourceFile) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "argmax",
                "argmin",
            ):
                if any(kw.arg == "axis" for kw in node.keywords):
                    continue  # array-valued result, not a scalar index
                if not self._coerced(file, node, "int"):
                    yield node, (
                        f"scalar {func.attr}() result used without int() "
                        "coercion (numpy integer would leak)"
                    )
            elif isinstance(func, ast.Name) and func.id == "Neighbor":
                if len(node.args) >= 1 and self._is_bare_subscript(node.args[0]):
                    yield node, (
                        "Neighbor distance built from an array subscript "
                        "without float() coercion"
                    )
                if len(node.args) >= 2 and self._is_bare_subscript(node.args[1]):
                    yield node, (
                        "Neighbor id built from an array subscript "
                        "without int() coercion"
                    )

    @staticmethod
    def _is_bare_subscript(arg: ast.expr) -> bool:
        return isinstance(arg, ast.Subscript)

    @staticmethod
    def _coerced(file: SourceFile, node: ast.AST, coercion: str) -> bool:
        """True when a ``coercion(...)`` call wraps ``node`` somewhere
        within the enclosing statement."""
        for ancestor in file.ancestors(node):
            if isinstance(ancestor, ast.stmt):
                return False
            if (
                isinstance(ancestor, ast.Call)
                and isinstance(ancestor.func, ast.Name)
                and ancestor.func.id == coercion
            ):
                return True
        return False


class UnregisteredIndexRule(ProjectRule):
    """RC006: every MetricIndex subclass must be in a package registry."""

    code = "RC006"
    description = (
        "concrete MetricIndex subclasses must be exported via a package "
        "__init__ __all__ list so tooling can enumerate them"
    )

    def check(self, file: SourceFile) -> Iterator[tuple[ast.AST, str]]:
        return iter(())

    def check_project(
        self, files: Sequence[SourceFile]
    ) -> Iterator[tuple[SourceFile, ast.AST, str]]:
        # Collect every class definition and its base-class names.
        classes: dict[str, tuple[SourceFile, ast.ClassDef]] = {}
        bases: dict[str, set[str]] = {}
        for file in files:
            for node in ast.walk(file.tree):
                if isinstance(node, ast.ClassDef):
                    classes.setdefault(node.name, (file, node))
                    names = set()
                    for base in node.bases:
                        if isinstance(base, ast.Name):
                            names.add(base.id)
                        elif isinstance(base, ast.Attribute):
                            names.add(base.attr)
                    bases.setdefault(node.name, set()).update(names)

        # Transitive closure of subclasses of MetricIndex.
        index_classes: set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, parents in bases.items():
                if name in index_classes or name == "MetricIndex":
                    continue
                if parents & (index_classes | {"MetricIndex"}):
                    index_classes.add(name)
                    changed = True

        # Union of every __init__.py __all__ export list.
        exported: set[str] = set()
        for file in files:
            if Path(file.display).name != "__init__.py":
                continue
            for node in ast.walk(file.tree):
                if (
                    isinstance(node, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets
                    )
                    and isinstance(node.value, (ast.List, ast.Tuple))
                ):
                    for element in node.value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            exported.add(element.value)

        for name in sorted(index_classes - exported):
            if name.startswith("_"):
                continue  # private helpers opt out of the registry
            file, node = classes[name]
            yield file, node, (
                f"index class {name} is not exported from any package "
                "__init__ __all__ registry"
            )


class NondeterminismSourceRule(Rule):
    """RC007: fuzz code may not read entropy the seed does not control."""

    code = "RC007"
    description = (
        "fuzzing code must derive all randomness from the sweep seed: "
        "unseeded default_rng(), the stdlib random module, clock reads, "
        "os.urandom and builtin hash() all break same-seed-same-bytes "
        "reproducibility"
    )

    #: attribute call -> receiver module name that makes it a finding.
    _BANNED_ATTRS = {
        "time": "time",
        "time_ns": "time",
        "monotonic": "time",
        "perf_counter": "time",
        "now": "datetime",
        "utcnow": "datetime",
        "today": "datetime",
        "urandom": "os",
    }

    def applies_to(self, file: SourceFile) -> bool:
        return "/fuzz/" in f"/{Path(file.display).as_posix()}"

    def check(self, file: SourceFile) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(file.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None) or ""
                names = {alias.name for alias in node.names}
                if module == "random" or "random" in names:
                    yield node, (
                        "stdlib random module uses hidden global state; "
                        "use numpy default_rng seeded from the sweep seed"
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name == "default_rng" and not node.args and not node.keywords:
                yield node, (
                    "unseeded default_rng() draws OS entropy; seed it "
                    "from [seed, case_index]"
                )
            elif isinstance(func, ast.Name) and name == "hash":
                yield node, (
                    "builtin hash() is salted per process; use hashlib "
                    "over canonical bytes instead"
                )
            elif isinstance(func, ast.Attribute):
                expected_receiver = self._BANNED_ATTRS.get(name)
                if (
                    expected_receiver is not None
                    and _receiver_name(func) == expected_receiver
                ):
                    yield node, (
                        f"{expected_receiver}.{name}() injects wall-clock/"
                        "OS state into case generation"
                    )


class SwallowedExceptionRule(Rule):
    """RC008: serve/resilience handlers may not swallow failures."""

    code = "RC008"
    description = (
        "except handlers in serving/resilience code must re-raise, "
        "route the failure into the breaker/failover machinery, or "
        "increment a counter; a silently swallowed exception hides an "
        "outage from health tracking"
    )

    #: Attribute calls that route a failure into resilience machinery:
    #: circuit-breaker outcome recording and future completion.
    _ROUTING_CALLS = {"record_failure", "record_success", "set_exception"}

    def applies_to(self, file: SourceFile) -> bool:
        posix = f"/{Path(file.display).as_posix()}"
        return "/serve/" in posix or "/resilience/" in posix

    def check(self, file: SourceFile) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._routes_failure(node):
                continue
            caught = (
                ast.unparse(node.type) if node.type is not None else "everything"
            )
            yield node, (
                f"handler catching {caught} neither re-raises, calls the "
                "breaker/failover machinery, nor increments a counter"
            )

    def _routes_failure(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._ROUTING_CALLS
            ):
                return True
        return False


#: Packages a forked serving worker inherits: the serving stack itself
#: plus everything a built index can transitively import.  CLI/tooling
#: packages (bench, check, fuzz) run only in the parent and are exempt.
_FORK_SCOPE = (
    "/serve/",
    "/resilience/",
    "/indexes/",
    "/core/",
    "/metric/",
    "/obs/",
    "/transforms/",
    "/persist/",
    "/datasets/",
    "/store/",
)


class ForkUnsafeStateRule(Rule):
    """RC009: no fork-unsafe state created at import time.

    ``ProcessExecutor`` workers inherit every already-imported module by
    ``fork``, so state constructed at import time — module globals and
    class attributes alike — is silently captured in whatever condition
    the parent left it: a lock another thread holds deadlocks the child
    forever, an open handle shares its file offset across processes,
    and an executor pool's threads simply do not exist after the fork.
    Such state must be created lazily, per instance, inside functions
    (see ``repro.serve.procpool`` for the contract this protects).
    """

    code = "RC009"
    description = (
        "fork-unsafe state (lock/handle/socket/pool) created at import "
        "time in a module forked serving workers inherit; construct it "
        "inside functions so each process owns a fresh instance"
    )

    _SYNC_PRIMITIVES = {
        "Lock",
        "RLock",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "Event",
        "Barrier",
    }
    _POOLS = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Pool"}
    _POOL_MODULES = {"futures", "concurrent", "multiprocessing"}

    def applies_to(self, file: SourceFile) -> bool:
        posix = f"/{Path(file.display).as_posix()}"
        return any(part in posix for part in _FORK_SCOPE)

    def check(self, file: SourceFile) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            label, hazard = self._unsafe_construction(node.func)
            if label is None:
                continue
            if self._deferred(file, node):
                continue  # built at call time, each process gets its own
            if hazard == "handle" and self._closed_by_with(file, node):
                continue  # handle closed before import finishes
            yield node, (
                f"{label} at import time is captured by fork workers "
                f"({self._CONSEQUENCE[hazard]}); create it inside a "
                "function so every process owns a fresh one"
            )

    _CONSEQUENCE = {
        "lock": "a lock held by any parent thread deadlocks the child",
        "handle": "the file offset is shared across processes",
        "socket": "the connection is shared and corrupts on dual use",
        "pool": "its worker threads do not survive the fork",
        "mmap": "the mapping must be opened per worker, post-fork/spawn, "
        "or a rebuilt store is never picked up and close() races",
    }

    def _unsafe_construction(
        self, func: ast.expr
    ) -> tuple[Optional[str], Optional[str]]:
        """(display label, hazard kind) when ``func`` builds fork-unsafe
        state, ``(None, None)`` otherwise."""
        if isinstance(func, ast.Name):
            if func.id == "open":
                return "open()", "handle"
            if func.id in self._SYNC_PRIMITIVES:
                return f"{func.id}()", "lock"
            if func.id in self._POOLS:
                return f"{func.id}()", "pool"
            if func.id == "memmap":
                return "memmap()", "mmap"
            return None, None
        if isinstance(func, ast.Attribute):
            receiver = _receiver_name(func)
            if receiver in ("threading", "multiprocessing") and (
                func.attr in self._SYNC_PRIMITIVES
            ):
                return f"{receiver}.{func.attr}()", "lock"
            if receiver in self._POOL_MODULES and func.attr in self._POOLS:
                return f"{receiver}.{func.attr}()", "pool"
            if receiver == "socket" and func.attr == "socket":
                return "socket.socket()", "socket"
            if receiver == "mmap" and func.attr == "mmap":
                return "mmap.mmap()", "mmap"
            if receiver in ("np", "numpy") and func.attr == "memmap":
                return f"{receiver}.memmap()", "mmap"
        return None, None

    @staticmethod
    def _deferred(file: SourceFile, node: ast.AST) -> bool:
        """True when the call runs at call time, not at import time."""
        for ancestor in file.ancestors(node):
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return True
        return False

    @staticmethod
    def _closed_by_with(file: SourceFile, node: ast.AST) -> bool:
        """True when the call is a ``with`` context expression — the
        handle closes before the module finishes importing, so nothing
        outlives into the fork."""
        for ancestor in file.ancestors(node):
            if isinstance(ancestor, ast.withitem):
                return True
            if isinstance(ancestor, ast.stmt):
                return False
        return False


class BudgetGatewayRule(Rule):
    """RC013: budgeted search code pays through the counting gateway.

    The approximate tier's contract (docs/approximate.md) is that
    ``distance_calls <= budget`` and ``ApproxReport.spent`` equals the
    true evaluation count.  Both hold only if every metric evaluation
    inside a budget-accepting function goes through the
    ``_dist``/``_batch_dist`` gateway; a raw ``.distance()`` /
    ``.batch_distance()`` call is invisible spend.
    """

    code = "RC013"
    description = (
        "budget-accepting function evaluates the metric directly; "
        "route through the _dist/_batch_dist counting gateway so the "
        "budget cap and the certificate's spent count stay truthful"
    )

    def applies_to(self, file: SourceFile) -> bool:
        posix = Path(file.display).as_posix()
        return "/approx/" in f"/{posix}" or bool(
            _KERNEL_MODULE.search(posix)
        )

    @staticmethod
    def _takes_budget(fn: ast.AST) -> bool:
        args = fn.args
        return "budget" in [
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        ]

    def check(self, file: SourceFile) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(file.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            if node.func.attr not in _METRIC_CALLS:
                continue
            holder = next(
                (
                    fn
                    for fn in _enclosing_functions(file, node)
                    if self._takes_budget(fn)
                ),
                None,
            )
            if holder is None:
                continue
            receiver = _receiver_name(node.func) or "<expr>"
            yield node, (
                f"{holder.name}() accepts budget= but calls {receiver}."
                f"{node.func.attr}() directly, bypassing the counting "
                "gateway the budget is enforced through"
            )


RULES: list[Rule] = [
    RawMetricCallRule(),
    SearchSignatureRule(),
    UnguardedObservationRule(),
    UnboundedRecursionRule(),
    NumpyScalarLeakRule(),
    UnregisteredIndexRule(),
    NondeterminismSourceRule(),
    SwallowedExceptionRule(),
    ForkUnsafeStateRule(),
    BudgetGatewayRule(),
]


def _iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def all_rules() -> list[Rule]:
    """Every registered rule, including the RC010-RC012 family.

    The concurrency rules live in :mod:`repro.check.concurrency`, which
    imports this module for the base classes — hence the late import.
    """
    from repro.check.concurrency import CONCURRENCY_RULES

    return [*RULES, *CONCURRENCY_RULES]


def _suppressed(file: SourceFile, rule: Rule, node: ast.AST, line: int) -> bool:
    """Line-level pragma, or (block-scoped rules) one on an enclosing
    ``with``/``def``/``class`` header."""
    if file.suppressed(rule.code, line):
        return True
    if rule.block_scoped:
        for ancestor in file.ancestors(node):
            if isinstance(
                ancestor,
                (ast.With, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ) and file.suppressed(rule.code, ancestor.lineno):
                return True
    return False


def _pragma_findings(
    files: Sequence[SourceFile], known: frozenset[str]
) -> Iterator[LintFinding]:
    """RC000: unknown rule codes inside ignore pragmas (typos suppress
    nothing, forever — so they are findings themselves)."""
    for file in files:
        for line, codes in sorted(file.suppressions.items()):
            for code in sorted(codes - known):
                if file.suppressed("RC000", line):
                    continue
                yield LintFinding(
                    file.display,
                    line,
                    1,
                    "RC000",
                    f"unknown rule code {code!r} in a repro-check ignore "
                    f"pragma; known codes: {', '.join(sorted(known))}",
                )


def run_lint(
    paths: Sequence[Path],
    select: Optional[Sequence[str]] = None,
    root: Optional[Path] = None,
) -> list[LintFinding]:
    """Run the RC rules over ``paths`` and return sorted findings.

    ``select`` restricts to the given rule codes; ``root`` (defaulting
    to the common parent) relativises displayed paths.
    """
    files = [SourceFile(p, root=root) for p in _iter_python_files(paths)]
    wanted = set(select) if select else None
    registry = all_rules()
    active = [r for r in registry if wanted is None or r.code in wanted]

    findings: list[LintFinding] = []
    known_codes = frozenset(r.code for r in registry) | {"RC000", "all"}
    if wanted is None or "RC000" in wanted:
        findings.extend(_pragma_findings(files, known_codes))
    for rule in active:
        if isinstance(rule, ProjectRule):
            scoped = [f for f in files if rule.applies_to(f)]
            for file, node, message in rule.check_project(scoped):
                line = getattr(node, "lineno", 1)
                if not _suppressed(file, rule, node, line):
                    findings.append(
                        LintFinding(
                            file.display,
                            line,
                            getattr(node, "col_offset", 0) + 1,
                            rule.code,
                            message,
                        )
                    )
            continue
        for file in files:
            if not rule.applies_to(file):
                continue
            for node, message in rule.check(file):
                line = getattr(node, "lineno", 1)
                if _suppressed(file, rule, node, line):
                    continue
                findings.append(
                    LintFinding(
                        file.display,
                        line,
                        getattr(node, "col_offset", 0) + 1,
                        rule.code,
                        message,
                    )
                )
    return sorted(findings, key=lambda f: (f.path, f.line, f.code))
