"""Project-specific lint rules for the repro codebase.

Each rule encodes one of the global invariants the paper reproduction
depends on (see ``docs/ANALYSIS.md`` for the full catalogue and rationale):

=======  ==================================================================
RNG001   all randomness flows through ``core/rng.py`` (``derive`` /
         ``derive_random`` / ``make_rng``); no direct RNG construction.
STA001   only ``core/stats.py`` imports ``scipy.stats`` or
         ``scipy.special``; p-values, quantiles and intervals come from it.
CLK001   no wall-clock / real-I/O access outside the sanctioned modules
         (``storage/disk.py`` owns the simulated clock, ``obs/tracer.py``
         is the wall-clock tracing layer).
FLT001   no ``==`` / ``!=`` on key or split-bound floats in ``acetree/``.
LAY001   package layering is respected (``core`` < ``storage`` <
         ``acetree``/``workloads`` < ``baselines``/``apps`` < ``view`` <
         ``analysis`` < ``bench``/``serve``/``testkit``).
MUT001   no mutable default arguments.
EXC001   no bare / overbroad ``except`` clauses.
TST001   test files must not monkeypatch the simulated disk's I/O
         internals; fault injection goes through
         :mod:`repro.testkit.faults` so faults are recorded and replayable.
HOT001   the columnar query hot path (``acetree/query.py``,
         ``acetree/storage.py``, ``storage/sample_cache.py``) must not
         materialize record tuples eagerly outside the sanctioned
         consumer-boundary functions.
OBS001   literal metric names passed to the metrics registry must be
         dot-namespaced ``subsystem.name``.
OBS002   exemplar and cost capture go through the sanctioned boundary:
         only the obs substrate and the storage charge points may mutate
         the cost accountant's ledger, call ``current_span_id()``, or
         pass an explicit ``span_id=`` to ``observe()``.
=======  ==================================================================

Rules only see one module at a time; whole-program invariants (sample
uniformity, cost conservation) live in :mod:`repro.analysis.invariants`.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .lint import (
    Finding,
    LintContext,
    canonical_name,
    register,
    resolve_import_base,
)

__all__ = ["LAYER_RANKS"]


# ---------------------------------------------------------------------------
# RNG001 — randomness discipline
# ---------------------------------------------------------------------------

#: Modules allowed to construct generators directly.
_RNG_SANCTIONED = {"core.rng"}

#: Canonical callables that construct or reseed a generator.
_RNG_BANNED = {
    "numpy.random.default_rng",
    "numpy.random.seed",
    "numpy.random.RandomState",
    "numpy.random.Generator",
    "random.Random",
    "random.seed",
    "random.SystemRandom",
}


@register("RNG001", "direct RNG construction outside core/rng.py")
def check_rng(ctx: LintContext) -> Iterator[Finding]:
    if ctx.module in _RNG_SANCTIONED:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = canonical_name(node.func, ctx.aliases)
        if name in _RNG_BANNED:
            yield ctx.finding(
                "RNG001",
                node,
                f"direct call to {name}(); derive the stream via "
                "repro.core.rng.derive()/derive_random() instead",
            )


# ---------------------------------------------------------------------------
# STA001 — one statistics module
# ---------------------------------------------------------------------------

#: ``scipy.stats`` costs about a second of start-up; only ``core/stats.py``
#: imports it or ``scipy.special``, whose ufuncs the library calls.
_STA_BANNED = ("scipy.stats", "scipy.special")


@register("STA001", "scipy statistics imported outside core/stats.py")
def check_stats_imports(ctx: LintContext) -> Iterator[Finding]:
    if ctx.module in (None, "core.stats"):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = resolve_import_base(node, ctx.module)
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        hit = next((m for m in _STA_BANNED for n in names
                    if n == m or n.startswith(m + ".")), None)
        if hit is not None:
            yield ctx.finding(
                "STA001", node, f"{hit} used outside core/stats.py; take "
                "p-values, quantiles and intervals from repro.core.stats",
            )


# ---------------------------------------------------------------------------
# CLK001 — clock and I/O integrity
# ---------------------------------------------------------------------------

#: ``storage/disk.py`` owns the simulated clock; ``obs/tracer.py`` is the
#: sanctioned wall-clock layer (the tracer measures the implementation
#: itself, never the modeled hardware).
_CLK_SANCTIONED = {"storage.disk", "obs.tracer"}

#: Modules whose import alone gives access to wall time / raw I/O.  The
#: import is the choke point: one finding per module instead of one per
#: call keeps suppressions readable.
_CLK_BANNED_MODULES = {"time", "mmap"}

#: Direct file / device access callables (no import needed for ``open``).
_CLK_BANNED_CALLS = {
    "open",
    "os.open",
    "os.read",
    "os.write",
    "os.pread",
    "os.pwrite",
    "os.fdopen",
    "io.open",
    "mmap.mmap",
}


@register("CLK001", "wall clock / raw I/O outside the simulated disk layer")
def check_clock(ctx: LintContext) -> Iterator[Finding]:
    if ctx.module in _CLK_SANCTIONED:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".", 1)[0]
                if root in _CLK_BANNED_MODULES:
                    yield ctx.finding(
                        "CLK001",
                        node,
                        f"import of {root!r}: timing must flow through the "
                        "simulated clock (storage/disk.py) or the tracer "
                        "(obs/tracer.py)",
                    )
        elif isinstance(node, ast.ImportFrom):
            base = resolve_import_base(node, ctx.module)
            if base and base.split(".", 1)[0] in _CLK_BANNED_MODULES:
                yield ctx.finding(
                    "CLK001",
                    node,
                    f"import from {base!r}: timing must flow through the "
                    "simulated clock (storage/disk.py) or the tracer "
                    "(obs/tracer.py)",
                )
        elif isinstance(node, ast.Call):
            name = canonical_name(node.func, ctx.aliases)
            if name in _CLK_BANNED_CALLS:
                yield ctx.finding(
                    "CLK001",
                    node,
                    f"direct call to {name}(); all I/O must route through "
                    "the simulated disk layer",
                )


# ---------------------------------------------------------------------------
# FLT001 — float equality on keys / split bounds in acetree/
# ---------------------------------------------------------------------------

_FLT_NAME_RE = re.compile(r"key|split|bound|boundar|quantile", re.IGNORECASE)


def _is_float_valued(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ):
        return True
    return False


def _is_suspect_name(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return bool(_FLT_NAME_RE.search(node.id))
    if isinstance(node, ast.Attribute):
        return bool(_FLT_NAME_RE.search(node.attr))
    return False


def _is_non_numeric_const(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(
        node.value, (str, bytes, bool, type(None))
    )


@register("FLT001", "float equality on keys / split bounds in acetree/")
def check_float_eq(ctx: LintContext) -> Iterator[Finding]:
    if ctx.module is None or not ctx.module.startswith("acetree"):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        if any(_is_float_valued(op) for op in operands):
            yield ctx.finding(
                "FLT001",
                node,
                "== / != against a float value; split bounds and keys must "
                "be compared with ordering predicates or math.isinf/isnan",
            )
        elif any(_is_suspect_name(op) for op in operands) and not any(
            _is_non_numeric_const(op) for op in operands
        ):
            yield ctx.finding(
                "FLT001",
                node,
                "== / != on a key/split-bound value; use ordering "
                "predicates (floats make equality fragile)",
            )


# ---------------------------------------------------------------------------
# LAY001 — import layering
# ---------------------------------------------------------------------------

#: A package may import from packages of rank <= its own.  Top-level
#: modules (``__init__``, ``__main__``) may import anything.
LAYER_RANKS = {
    "core": 0,
    "obs": 0,
    "storage": 1,
    "workloads": 2,
    "acetree": 2,
    "baselines": 3,
    "apps": 3,
    "view": 4,
    "analysis": 5,
    "bench": 6,
    "serve": 6,
    "testkit": 6,
}


def _repro_target(base: str) -> str | None:
    """The repro subpackage an absolute dotted import refers to, if any."""
    parts = base.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


@register("LAY001", "import-layering violation between repro subpackages")
def check_layering(ctx: LintContext) -> Iterator[Finding]:
    if ctx.module is None or "." not in ctx.module:
        return  # top-level modules sit above the layering
    own_pkg = ctx.module.split(".", 1)[0]
    own_rank = LAYER_RANKS.get(own_pkg)
    if own_rank is None:
        return
    for node in ast.walk(ctx.tree):
        targets: list[tuple[ast.AST, str]] = []
        if isinstance(node, ast.ImportFrom):
            base = resolve_import_base(node, ctx.module)
            if base:
                targets.append((node, base))
        elif isinstance(node, ast.Import):
            targets.extend((node, alias.name) for alias in node.names)
        for at, base in targets:
            pkg = _repro_target(base)
            if pkg is None:
                continue
            rank = LAYER_RANKS.get(pkg)
            if rank is not None and rank > own_rank:
                yield ctx.finding(
                    "LAY001",
                    at,
                    f"{own_pkg}/ (layer {own_rank}) imports repro.{pkg} "
                    f"(layer {rank}); lower layers must not depend on "
                    "higher ones",
                )


# ---------------------------------------------------------------------------
# MUT001 — mutable default arguments
# ---------------------------------------------------------------------------

_MUT_FACTORIES = {"list", "dict", "set", "bytearray"}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUT_FACTORIES
    ):
        return True
    return False


@register("MUT001", "mutable default argument")
def check_mutable_defaults(ctx: LintContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield ctx.finding(
                    "MUT001",
                    default,
                    "mutable default argument is shared across calls; "
                    "default to None and construct inside the function",
                )


# ---------------------------------------------------------------------------
# EXC001 — bare / overbroad except clauses
# ---------------------------------------------------------------------------

_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _names_in_handler_type(node: ast.AST | None) -> Iterator[str]:
    if node is None:
        return
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            yield from _names_in_handler_type(element)
    else:
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None:
            yield name


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(stmt, ast.Raise) and stmt.exc is None for stmt in handler.body
    )


@register("EXC001", "bare or overbroad except clause")
def check_excepts(ctx: LintContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield ctx.finding(
                "EXC001",
                node,
                "bare except catches SystemExit/KeyboardInterrupt too; "
                "name the exceptions you expect",
            )
            continue
        broad = [
            name
            for name in _names_in_handler_type(node.type)
            if name in _BROAD_EXCEPTIONS
        ]
        if broad and not _reraises(node):
            yield ctx.finding(
                "EXC001",
                node,
                f"overbroad except {broad[0]} without re-raise; narrow it "
                "to the exceptions this site expects",
            )


# ---------------------------------------------------------------------------
# HOT001 — no eager record materialization in the query hot path
# ---------------------------------------------------------------------------

#: The zero-copy hot path (see docs/PERFORMANCE.md): these modules stream
#: lazy batch handles and column views; decoding every record into Python
#: tuples belongs to the consumer, not the loop.
_HOT_MODULES = {"acetree.query", "acetree.storage", "storage.sample_cache"}

#: Method calls that decode a whole record set in one go.
_HOT_EAGER_CALLS = {"section_records", "unpack_many"}

#: An attribute whose *load* decodes every record of a page/batch
#: (``PageView.records``, ``SampleBatch.records``).
_HOT_EAGER_ATTR = "records"

#: The sanctioned materialization boundaries — the functions whose entire
#: purpose is handing decoded tuples to a consumer that asked for them.
#: Anything else (the stab loop, Combine filing/draining, cache
#: fetch/insert) must stay lazy; one-off exceptions carry a
#: ``# repro: allow[HOT001]`` comment explaining why.
_HOT_SANCTIONED_FUNCS = {"records", "take"}


def _walk_with_function(tree: ast.AST) -> Iterator[tuple[ast.AST, str | None]]:
    """Every node paired with the name of its innermost enclosing function."""
    stack: list[tuple[ast.AST, str | None]] = [(tree, None)]
    while stack:
        node, func = stack.pop()
        yield node, func
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append((child, child.name))
            else:
                stack.append((child, func))


@register("HOT001", "eager record materialization in the query hot path")
def check_hot_path(ctx: LintContext) -> Iterator[Finding]:
    if ctx.module not in _HOT_MODULES:
        return
    for node, func in _walk_with_function(ctx.tree):
        if func in _HOT_SANCTIONED_FUNCS:
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _HOT_EAGER_CALLS
        ):
            yield ctx.finding(
                "HOT001",
                node,
                f".{node.func.attr}() decodes a full record set inside the "
                "query hot path; keep cells/batches lazy and let the "
                "consumer materialize (see docs/PERFORMANCE.md)",
            )
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == _HOT_EAGER_ATTR
            and isinstance(node.ctx, ast.Load)
        ):
            yield ctx.finding(
                "HOT001",
                node,
                f"loading .{_HOT_EAGER_ATTR} decodes every record inside "
                "the query hot path; keep cells/batches lazy and let the "
                "consumer materialize (see docs/PERFORMANCE.md)",
            )


# ---------------------------------------------------------------------------
# TST001 — no ad-hoc disk monkeypatching in tests
# ---------------------------------------------------------------------------

#: Disk internals tests must not stub out directly: patched faults are
#: unrecorded and unreplayable, and they skip the accounting the real
#: read/write paths perform.  :class:`repro.testkit.faults.FaultyDisk`
#: exists precisely so injected failures are deterministic and replayable.
_TST_PATCH_BANNED = {
    "read_page", "write_page", "_charge_access", "_pages", "_checksums",
}


def _mentions_banned_attr(value) -> bool:
    return isinstance(value, str) and (
        value in _TST_PATCH_BANNED
        or any(value.endswith("." + attr) for attr in _TST_PATCH_BANNED)
    )


@register("TST001", "test monkeypatches the simulated disk's I/O internals")
def check_test_disk_patching(ctx: LintContext) -> Iterator[Finding]:
    if "tests" not in ctx.path.parts:
        return
    message = (
        "{what} replaces the disk's I/O path behind the accounting layer; "
        "inject failures via repro.testkit.faults.FaultyDisk/FaultPlan so "
        "they are deterministic and replayable"
    )
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in _TST_PATCH_BANNED
                ):
                    yield ctx.finding(
                        "TST001",
                        node,
                        message.format(what=f"assignment to .{target.attr}"),
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            is_setattr = (
                isinstance(func, ast.Name) and func.id == "setattr"
            ) or (isinstance(func, ast.Attribute) and func.attr == "setattr")
            if not is_setattr:
                continue
            for arg in node.args:
                if isinstance(arg, ast.Constant) and _mentions_banned_attr(
                    arg.value
                ):
                    yield ctx.finding(
                        "TST001",
                        node,
                        message.format(what=f"setattr of {arg.value!r}"),
                    )
                    break


# ---------------------------------------------------------------------------
# OBS001 — metric naming
# ---------------------------------------------------------------------------

#: Metric constructor methods on the metrics registry.
_OBS_FAMILY_METHODS = {"counter", "gauge", "histogram"}

#: ``subsystem.name``: lowercase dot-separated segments, at least two.
_OBS_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


def _is_metrics_receiver(node: ast.AST) -> bool:
    """True when the call receiver looks like a metrics registry.

    Matches ``METRICS``, ``metrics``, ``self.metrics``/``self._metrics`` and
    other dotted chains whose final segment names a registry.  Keeping the
    check name-based (rather than type-based) is what lets the rule run on
    one module at a time.
    """
    name = canonical_name(node, {})
    if name is None:
        return False
    tail = name.rsplit(".", 1)[-1].lower().lstrip("_")
    return tail in {"metrics", "registry"} or name.endswith("METRICS")


@register("OBS001", "metric name outside the registered scheme")
def check_obs_naming(ctx: LintContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _OBS_FAMILY_METHODS
            and _is_metrics_receiver(func.value)
        ):
            continue
        first = node.args[0]
        # Only literal names are pinned; dynamic names (f-strings,
        # variables) go unchecked.
        if not isinstance(first, ast.Constant) or not isinstance(
            first.value, str
        ):
            continue
        if not _OBS_NAME_RE.match(first.value):
            yield ctx.finding(
                "OBS001",
                node,
                f"metric name {first.value!r} is not dot-namespaced; "
                "use 'subsystem.name' (e.g. 'query.lost_leaves')",
            )


# ---------------------------------------------------------------------------
# OBS002 — exemplar / cost capture stays behind the sanctioned boundary
# ---------------------------------------------------------------------------

#: Modules allowed to capture span ids or mutate the cost accountant's
#: ledger: the obs substrate itself plus the storage charge points.  Any
#: other call site must let ``Histogram.observe`` resolve the ambient
#: span and let the disk layer attribute its own charges — ad-hoc
#: capture would fork the attribution path and break the conservation
#: check.
_OBS2_SANCTIONED = {
    "obs.analyze",
    "obs.cost",
    "obs.export",
    "obs.expose",
    "obs.flight",
    "obs.metrics",
    "obs.recorder",
    "obs.report",
    "obs.tracer",
    "storage.disk",
    "storage.recovery",
}

#: Ledger mutators on the cost accountant.
_OBS2_COST_METHODS = {"record_reads", "record_writes", "record_io"}


def _is_cost_receiver(node: ast.AST) -> bool:
    """True when the call receiver looks like the cost accountant."""
    name = canonical_name(node, {})
    if name is None:
        return False
    tail = name.rsplit(".", 1)[-1].lstrip("_").lower()
    return tail in {"cost", "accountant"}


@register("OBS002", "exemplar/cost capture outside the sanctioned boundary")
def check_obs_boundary(ctx: LintContext) -> Iterator[Finding]:
    if ctx.module in _OBS2_SANCTIONED:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr in _OBS2_COST_METHODS and _is_cost_receiver(func.value):
            yield ctx.finding(
                "OBS002",
                node,
                f"direct COST.{func.attr}() outside the storage charge "
                "points; page attribution flows through repro.storage.disk "
                "and repro.storage.recovery only",
            )
        elif func.attr == "current_span_id":
            yield ctx.finding(
                "OBS002",
                node,
                "ad-hoc span-id capture via current_span_id(); exemplars "
                "are recorded inside Histogram.observe (repro.obs.metrics)",
            )
        elif func.attr == "observe" and any(
            kw.arg == "span_id" for kw in node.keywords
        ):
            yield ctx.finding(
                "OBS002",
                node,
                "explicit span_id= on observe() outside the trace "
                "recorder; let the histogram resolve the ambient span",
            )
