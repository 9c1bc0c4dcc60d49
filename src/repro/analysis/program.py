"""The whole-program determinism & concurrency-safety pass.

``python -m repro lint --program`` runs four analyses over the project
call graph (:mod:`repro.analysis.callgraph`) that no per-module rule can
express — the gate every scheduler/sharding PR (ROADMAP item 1) runs
under:

=========  ================================================================
SEED001    two call sites derive RNG streams with the *same* constant tag
           tuple — their draws are bit-identical, silently correlating
           components that believe they are independent.
SEED002    an RNG object escapes the scope that derived it: stored at
           module level, stored on a *foreign* object's attribute, or
           returned from a function outside ``core/rng.py``.  Escaped
           generators are shared mutable cursors; two consumers advancing
           one stream destroys replayability.
RACE001    module-level mutable state (dict/list/set/OrderedDict/counter
           objects, stateful project-class singletons) without a
           ``# repro: shared[...]`` annotation.
RACE002    an instance dict/list/cache attribute that is mutated on a call
           chain reachable from the sampling hot paths (traversals that
           ROADMAP item 1 will interleave), without an annotation on the
           attribute or its class.
RACE003    the annotation registry is inconsistent: a ``shared[...]``
           annotation missing from the ``pyproject.toml`` allowlist, a
           spec mismatch, a stale allowlist entry, or an annotation on an
           unrecognizable site.
LAY001     (upgraded) a *resolved call edge* crosses the package layering
           upward — catches dynamic imports and callbacks the per-module
           import rule cannot see.
=========  ================================================================

Pre-existing accepted findings live in a committed baseline
(``analysis/baseline.json``): baselined findings never fail the run, new
ones always do.  Output is human text, ``--json``, or SARIF 2.1.0
(``--sarif FILE``) for code-scanning UIs.  The runtime counterpart — the
access-ordinal sanitizer proving the ``confined`` annotations honest —
lives in :mod:`repro.analysis.invariants`.
"""

from __future__ import annotations

import ast
import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from .callgraph import (
    CallGraph,
    Project,
    _collect_local_types,
    _receiver_class,
    _resolve_call_name,
    build_call_graph,
    build_project,
)
from .lint import Finding, suppressed_rule_index
from .rules import LAYER_RANKS
from .state import (
    MUTABLE_FACTORIES,
    MUTATOR_METHODS,
    SharedAnnotation,
    collect_annotations,
    load_allowlist,
    parse_spec,
)

__all__ = [
    "PROGRAM_RULES",
    "ProgramReport",
    "analyze_program",
    "apply_baseline",
    "fingerprint",
    "load_baseline",
    "to_sarif",
    "write_baseline",
]

#: Rule descriptors for output and SARIF metadata.
PROGRAM_RULES = {
    "SEED001": "duplicate derive() tag: two sites draw identical streams",
    "SEED002": "RNG object escapes its deriving scope",
    "RACE001": "unannotated module-level mutable state",
    "RACE002": "unannotated instance state mutated on a hot traversal path",
    "RACE003": "shared[...] annotation registry violation",
    "LAY001": "call-graph layering violation between repro subpackages",
    "AST000": "file does not parse",
}

#: Functions whose return value is a seeded generator (the taint sources).
_RNG_SOURCES = frozenset({
    "core.rng.derive",
    "core.rng.derive_random",
    "core.rng.make_rng",
    "core.rng.spawn",
})

#: The tag-taking derivation entry points (SEED001 collision candidates).
_TAGGED_SOURCES = frozenset({"core.rng.derive", "core.rng.derive_random"})

#: Modules exempt from the SEED escape rules (they implement the
#: discipline).
_SEED_SANCTIONED = frozenset({"core.rng"})

#: Entry points of the sampling/query surface — the call chains ROADMAP
#: item 1 will run concurrently, and hence the roots of the RACE002
#: reachability.  Extended (never replaced) by ``hot_roots`` in
#: ``[tool.repro.program]``.
DEFAULT_HOT_ROOTS = (
    r"^acetree\.tree\.AceTree\.sample$",
    r"^acetree\.query\.SampleStream\.(__init__|__next__|__iter__|take|records)$",
    r"^baselines\.\w+\.\w+\.(sample|sample_olken)$",
    r"^view\.\w+\.\w+\.sample\w*$",
    r"^storage\.sample_cache\.SampleCache\.(get|peek|put)$",
    r"^storage\.buffer\.RecordPageCache\.read$",
    r"^storage\.buffer\.DecodeMemo\.(get|put)$",
)

#: Current baseline file format version.
BASELINE_VERSION = 1


@dataclass
class ProgramReport:
    """Everything one whole-program run produced."""

    findings: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    fresh: list[Finding] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Helpers shared by the passes
# ---------------------------------------------------------------------------


def _ordered_stmts(body):
    """Statements of a body in execution order, not entering nested defs."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for field_name in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, field_name, None)
            if isinstance(sub, list):
                yield from _ordered_stmts(
                    [s for s in sub if isinstance(s, ast.stmt)])
        for handler in getattr(stmt, "handlers", None) or ():
            yield from _ordered_stmts(handler.body)


def _callee_qname(project: Project, mod, fn, call: ast.Call) -> str | None:
    """The function qname a call resolves to by name, or None."""
    resolved = _resolve_call_name(project, mod, call.func)
    if resolved is not None and resolved[0] == "func":
        return resolved[1]
    if (
        isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id in ("self", "cls")
        and fn is not None
        and fn.cls is not None
    ):
        cls = project.classes.get(fn.cls)
        if cls is not None:
            return project.find_method(cls, call.func.attr)
    return None


def _finding(rule: str, path, node_or_line, message: str,
             col: int = 1) -> Finding:
    if isinstance(node_or_line, int):
        line, column = node_or_line, col
    else:
        line = getattr(node_or_line, "lineno", 1)
        column = getattr(node_or_line, "col_offset", 0) + 1
    return Finding(rule=rule, path=str(path), line=line, col=column,
                   message=message)


def _mutable_kind(project: Project, mod, value: ast.AST) -> str | None:
    """How a value expression is shared-mutable, or None if it is not."""
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if not isinstance(value, ast.Call):
        return None
    resolved = _resolve_call_name(project, mod, value.func)
    if resolved is not None and resolved[0] == "class":
        cls = project.classes.get(resolved[1])
        if cls is not None and not cls.frozen:
            return f"instance of {cls.name}"
        return None
    if isinstance(value.func, ast.Name):
        name = mod.aliases.get(value.func.id, value.func.id)
    else:
        from .lint import canonical_name

        name = canonical_name(value.func, mod.aliases)
    if name in MUTABLE_FACTORIES:
        return f"{name}()"
    return None


# ---------------------------------------------------------------------------
# SEED001 — duplicate derivation tags
# ---------------------------------------------------------------------------


def _check_seed_collisions(project: Project) -> list[Finding]:
    sites: dict[tuple, list[tuple]] = defaultdict(list)
    for fn in project.functions.values():
        if fn.module in _SEED_SANCTIONED:
            continue
        mod = project.modules[fn.module]
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee_qname(project, mod, fn, node)
            if callee not in _TAGGED_SOURCES:
                continue
            tags = node.args[1:]
            if not tags or not all(
                isinstance(t, ast.Constant)
                and isinstance(t.value, (str, int))
                for t in tags
            ):
                continue
            key = tuple(t.value for t in tags)
            sites[key].append((str(fn.path), node.lineno,
                               node.col_offset + 1, fn.qname, key))
    findings: list[Finding] = []
    for key, occurrences in sites.items():
        # Distinct *functions* deriving with one tag tuple draw identical
        # streams; repeated derivation inside one function is the
        # sanctioned replay idiom.
        by_fn = {occ[3] for occ in occurrences}
        if len(by_fn) < 2:
            continue
        occurrences.sort()
        first = occurrences[0]
        for path, line, col, qname, tags in occurrences[1:]:
            if qname == first[3]:
                continue
            findings.append(Finding(
                rule="SEED001", path=path, line=line, col=col,
                message=(
                    f"derive tag {tags!r} in {qname} is also used by "
                    f"{first[3]} ({first[0]}:{first[1]}): both sites draw "
                    "bit-identical streams — give each derivation a "
                    "distinct tag"
                ),
            ))
    return findings


# ---------------------------------------------------------------------------
# SEED002 — escaped RNG objects
# ---------------------------------------------------------------------------


def _returns_and_escapes(project, mod, fn, rng_returning, emit):
    """One intraprocedural taint pass over ``fn``.

    Returns True when the function returns a tainted value.  With
    ``emit`` set, appends SEED002 findings for escapes (module-level and
    foreign-attribute stores, returns).
    """
    tainted: set[str] = set()
    returns = False
    findings: list[Finding] = []

    def value_tainted(expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in tainted
        if isinstance(expr, ast.Call):
            return _callee_qname(project, mod, fn, expr) in rng_returning
        if isinstance(expr, ast.IfExp):
            return value_tainted(expr.body) or value_tainted(expr.orelse)
        if isinstance(expr, ast.NamedExpr):
            return value_tainted(expr.value)
        return False

    # Two passes so loop-carried taint converges.
    for _ in range(2):
        for stmt in _ordered_stmts(fn.node.body):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                if value is None:
                    continue
                hot = value_tainted(value)
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for target in targets:
                    if isinstance(target, ast.Name):
                        if hot:
                            tainted.add(target.id)
                        else:
                            tainted.discard(target.id)
                    elif hot and isinstance(target, ast.Attribute):
                        base = target.value
                        if not (isinstance(base, ast.Name)
                                and base.id in ("self", "cls")):
                            findings.append(_finding(
                                "SEED002", fn.path, stmt,
                                f"RNG stored on a foreign object "
                                f"(.{target.attr}) in {fn.qname}: the "
                                "generator escapes its deriving scope and "
                                "becomes shared mutable state — store a "
                                "(seed, tag) pair and re-derive instead",
                            ))
            elif isinstance(stmt, ast.Return):
                if stmt.value is not None and value_tainted(stmt.value):
                    returns = True
                    findings.append(_finding(
                        "SEED002", fn.path, stmt,
                        f"{fn.qname} returns a live RNG object; callers "
                        "share one stream cursor and draws stop being "
                        "attributable to a (seed, tag) — return the "
                        "seed/tag, or sanction the factory in core/rng.py",
                    ))
    if emit is not None:
        # De-duplicate the two convergence passes by anchor.
        seen = set()
        for finding in findings:
            key = (finding.path, finding.line, finding.col, finding.message)
            if key not in seen:
                seen.add(key)
                emit.append(finding)
    return returns


def _check_seed_escapes(project: Project) -> list[Finding]:
    rng_returning = set(_RNG_SOURCES)
    # Fixpoint: a function returning a tainted value is itself a source
    # for its callers (the interprocedural step).
    changed = True
    guard = 0
    while changed and guard < 10:
        changed = False
        guard += 1
        for fn in project.functions.values():
            if fn.module in _SEED_SANCTIONED or fn.qname in rng_returning:
                continue
            mod = project.modules[fn.module]
            if _returns_and_escapes(project, mod, fn, rng_returning, None):
                rng_returning.add(fn.qname)
                changed = True
    findings: list[Finding] = []
    for fn in project.functions.values():
        if fn.module in _SEED_SANCTIONED:
            continue
        mod = project.modules[fn.module]
        _returns_and_escapes(project, mod, fn, rng_returning, findings)
    # Module-level: an RNG bound at import time is global shared state.
    for mod in project.modules.values():
        if mod.module in _SEED_SANCTIONED:
            continue
        for stmt in mod.tree.body:
            value = getattr(stmt, "value", None)
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            if isinstance(value, ast.Call):
                resolved = _resolve_call_name(project, mod, value.func)
                if (resolved is not None and resolved[0] == "func"
                        and resolved[1] in rng_returning):
                    findings.append(_finding(
                        "SEED002", mod.path, stmt,
                        "module-level RNG object: every importer shares "
                        "one stream cursor — derive inside the consuming "
                        "function from an explicit (seed, tag)",
                    ))
    return findings


# ---------------------------------------------------------------------------
# Shared-state annotation sites (RACE003 registry checking)
# ---------------------------------------------------------------------------


@dataclass
class _AnnotatedSite:
    site: str  #: qualified site name (``"obs.metrics.METRICS"``)
    annotation: SharedAnnotation
    path: str
    line: int


def _annotation_sites(project: Project) -> tuple[list[_AnnotatedSite],
                                                 list[Finding]]:
    """Map every ``shared[...]`` annotation to the site it covers."""
    sites: list[_AnnotatedSite] = []
    orphans: list[Finding] = []
    for mod in project.modules.values():
        annotations = collect_annotations(mod.lines)
        if not annotations:
            continue
        covered: dict[int, str] = {}
        prefix = f"{mod.module}." if mod.module else ""

        def span_of(node, header_only=False) -> range:
            end = getattr(node, "end_lineno", None) or node.lineno
            body = getattr(node, "body", None)
            if header_only and isinstance(body, list) and body:
                end = body[0].lineno - 1
            return range(node.lineno, end + 1)

        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                target = (stmt.targets[0] if isinstance(stmt, ast.Assign)
                          and stmt.targets else getattr(stmt, "target", None))
                if isinstance(target, ast.Name):
                    for line in span_of(stmt):
                        covered.setdefault(line, f"{prefix}{target.id}")
            elif isinstance(stmt, ast.ClassDef):
                cls_site = f"{prefix}{stmt.name}"
                for line in span_of(stmt, header_only=True):
                    covered.setdefault(line, cls_site)
                for item in stmt.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(
                            item.target, ast.Name):
                        for line in span_of(item):
                            covered.setdefault(
                                line, f"{cls_site}.{item.target.id}")
                    elif isinstance(item, ast.Assign) and item.targets and (
                            isinstance(item.targets[0], ast.Name)):
                        for line in span_of(item):
                            covered.setdefault(
                                line, f"{cls_site}.{item.targets[0].id}")
                    elif isinstance(item, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                        for node in ast.walk(item):
                            if isinstance(node, ast.Assign):
                                node_targets = node.targets
                            elif isinstance(node, ast.AnnAssign):
                                node_targets = [node.target]
                            else:
                                continue
                            for tgt in node_targets:
                                if (
                                    isinstance(tgt, ast.Attribute)
                                    and isinstance(tgt.value, ast.Name)
                                    and tgt.value.id == "self"
                                ):
                                    for line in span_of(node):
                                        covered.setdefault(
                                            line,
                                            f"{cls_site}.{tgt.attr}")
        for lineno, annotation in annotations.items():
            site = covered.get(lineno)
            if site is None:
                orphans.append(Finding(
                    rule="RACE003", path=str(mod.path), line=lineno, col=1,
                    message=(
                        "shared[...] annotation is not attached to a "
                        "module-level binding, a class, or an instance "
                        "attribute — move it onto the shared site it "
                        "sanctions"
                    ),
                ))
                continue
            sites.append(_AnnotatedSite(
                site=site, annotation=annotation, path=str(mod.path),
                line=lineno,
            ))
    return sites, orphans


def _check_registry(sites: list[_AnnotatedSite], registry: dict[str, str],
                    pyproject: Path | None) -> list[Finding]:
    findings: list[Finding] = []
    annotated = {s.site: s for s in sites}
    for name, site in sorted(annotated.items()):
        spec = registry.get(name)
        if spec is None:
            findings.append(Finding(
                rule="RACE003", path=site.path, line=site.line, col=1,
                message=(
                    f"shared[{site.annotation.spec}] on {name} is not in "
                    "the [tool.repro.program] shared allowlist of "
                    "pyproject.toml — register it so sanctioned shared "
                    "state stays reviewable in one place"
                ),
            ))
            continue
        kind, lock = parse_spec(spec)
        if (kind, lock) != (site.annotation.kind, site.annotation.lock):
            findings.append(Finding(
                rule="RACE003", path=site.path, line=site.line, col=1,
                message=(
                    f"shared[{site.annotation.spec}] on {name} disagrees "
                    f"with the allowlist entry '{spec}' in pyproject.toml "
                    "— the annotation and the registry must tell the same "
                    "concurrency story"
                ),
            ))
    for name in sorted(registry):
        if name not in annotated:
            findings.append(Finding(
                rule="RACE003",
                path=str(pyproject) if pyproject else "pyproject.toml",
                line=1, col=1,
                message=(
                    f"stale allowlist entry: {name} has no matching "
                    "shared[...] annotation in the source tree — remove "
                    "the entry or restore the annotation"
                ),
            ))
    return findings


# ---------------------------------------------------------------------------
# RACE001 — module-level mutable state
# ---------------------------------------------------------------------------

_CONST_NAME_RE = re.compile(r"^_?[A-Z][A-Z0-9_]*$")


def _is_literal_constant(name: str, value: ast.AST) -> bool:
    """ALL_CAPS bound to a *non-empty* literal container with no calls.

    Such bindings are constants by project convention (rule tables, banned
    sets, schema dicts): built once by the literal, never grown.  An
    *empty* literal does not qualify — a registry that starts empty exists
    to be mutated.
    """
    if not _CONST_NAME_RE.match(name):
        return False
    if not isinstance(value, (ast.Dict, ast.Set, ast.List, ast.Tuple)):
        return False
    elts = value.keys if isinstance(value, ast.Dict) else value.elts
    if not elts:
        return False
    return not any(isinstance(sub, ast.Call) for sub in ast.walk(value))


def _check_module_state(project: Project,
                        annotated_sites: set[str]) -> list[Finding]:
    findings: list[Finding] = []
    for mod in project.modules.values():
        prefix = f"{mod.module}." if mod.module else ""
        for stmt in mod.tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            target = (stmt.targets[0] if isinstance(stmt, ast.Assign)
                      and len(stmt.targets) == 1
                      else getattr(stmt, "target", None))
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name.startswith("__") and name.endswith("__"):
                continue  # __all__ and friends: written once, by convention
            value = stmt.value
            if value is None:
                continue
            if _is_literal_constant(name, value):
                continue
            kind = _mutable_kind(project, mod, value)
            if kind is None:
                continue
            site = f"{prefix}{name}"
            if site in annotated_sites:
                continue
            findings.append(_finding(
                "RACE001", mod.path, stmt,
                f"module-level mutable state {name} ({kind}): every "
                "importer shares it and concurrent traversals will race — "
                "annotate `# repro: shared[lock=<name>|confined|frozen]` "
                "(and register it in pyproject.toml) or construct it "
                "per-use",
            ))
    return findings


# ---------------------------------------------------------------------------
# RACE002 — hot-path shared instance state
# ---------------------------------------------------------------------------


def _declared_mutable_attrs(project: Project):
    """(class qname, attr) -> (kind, path, lineno) for container attrs."""
    declared: dict[tuple[str, str], tuple[str, str, int]] = {}
    for cls in project.classes.values():
        mod = project.modules[cls.module]
        for item in cls.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name):
                kind = _dataclass_field_kind(project, mod, item.value)
                if kind is None and item.value is not None:
                    kind = _container_kind(project, mod, item.value)
                if kind is not None:
                    declared[(cls.qname, item.target.id)] = (
                        kind, str(mod.path), item.lineno)
        for method_name in ("__init__", "__post_init__"):
            fn_qname = cls.methods.get(method_name)
            if fn_qname is None:
                continue
            fn = project.functions[fn_qname]
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        kind = _container_kind(project, mod, value)
                        if kind is not None:
                            declared.setdefault(
                                (cls.qname, target.attr),
                                (kind, str(mod.path), node.lineno))
    return declared


def _container_kind(project, mod, value) -> str | None:
    """Like :func:`_mutable_kind` but containers only (no class instances).

    Composition (``self.stats = CacheStats()``) is the normal shape of an
    object; the race surface this rule tracks is the *container* caches
    and memos that grow and evict on the hot path.
    """
    kind = _mutable_kind(project, mod, value)
    if kind is None or kind.startswith("instance of"):
        return None
    return kind


def _dataclass_field_kind(project, mod, value) -> str | None:
    """Mutable default_factory of a dataclass ``field(...)`` value."""
    if not isinstance(value, ast.Call):
        return None
    name = None
    if isinstance(value.func, ast.Name):
        name = mod.aliases.get(value.func.id, value.func.id)
    if name is None or not name.endswith("field"):
        return None
    for kw in value.keywords:
        if kw.arg == "default_factory" and isinstance(kw.value, ast.Name):
            factory = mod.aliases.get(kw.value.id, kw.value.id)
            if factory in MUTABLE_FACTORIES:
                return f"field(default_factory={kw.value.id})"
    return None


def _collect_mutations(project: Project):
    """(class qname, attr) -> list of (fn qname, path, lineno) mutations."""
    mutations: dict[tuple[str, str], list[tuple[str, str, int]]] = (
        defaultdict(list))
    for fn in project.functions.values():
        mod = project.modules[fn.module]
        cls = project.classes.get(fn.cls) if fn.cls else None
        local_types = _collect_local_types(project, mod, fn)

        def owner_of(attr_node: ast.Attribute) -> str | None:
            owner = _receiver_class(project, mod, fn, cls, local_types,
                                    attr_node.value)
            return owner

        def note(attr_node: ast.Attribute) -> None:
            owner = owner_of(attr_node)
            if owner is not None:
                mutations[(owner, attr_node.attr)].append(
                    (fn.qname, str(fn.path), attr_node.lineno))

        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                            target.value, ast.Attribute):
                        note(target.value)
                    elif isinstance(target, ast.Attribute):
                        if fn.name not in ("__init__", "__post_init__"):
                            note(target)
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Subscript) and isinstance(
                        node.target.value, ast.Attribute):
                    note(node.target.value)
                elif isinstance(node.target, ast.Attribute):
                    note(node.target)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                            target.value, ast.Attribute):
                        note(target.value)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS
                    and isinstance(func.value, ast.Attribute)
                ):
                    note(func.value)
    return mutations


def _hot_roots(project: Project, extra_patterns) -> list[str]:
    patterns = [re.compile(p) for p in
                (*DEFAULT_HOT_ROOTS, *extra_patterns)]
    return [qname for qname in project.functions
            if any(p.search(qname) for p in patterns)]


def _check_instance_state(project: Project, graph: CallGraph,
                          annotated_sites: set[str],
                          extra_roots) -> list[Finding]:
    declared = _declared_mutable_attrs(project)
    if not declared:
        return []
    mutations = _collect_mutations(project)
    hot = graph.reachable(_hot_roots(project, extra_roots), fuzzy=True)
    findings: list[Finding] = []
    for (cls_qname, attr), (kind, path, lineno) in sorted(declared.items()):
        hot_sites = [m for m in mutations.get((cls_qname, attr), ())
                     if m[0] in hot]
        if not hot_sites:
            continue
        site = f"{cls_qname}.{attr}"
        if site in annotated_sites or cls_qname in annotated_sites:
            continue
        cls = project.classes[cls_qname]
        sample = hot_sites[0]
        findings.append(Finding(
            rule="RACE002", path=path, line=lineno, col=1,
            message=(
                f"instance attribute {cls.name}.{attr} ({kind}) is mutated "
                f"on a hot traversal path ({sample[0]} at "
                f"{sample[1]}:{sample[2]}); interleaved traversals will "
                "race on it — annotate `# repro: shared[lock=<name>|"
                "confined|frozen]` on the attribute or its class (and "
                "register it in pyproject.toml), or make it "
                "traversal-local"
            ),
        ))
    return findings


# ---------------------------------------------------------------------------
# LAY001 — call-graph layering
# ---------------------------------------------------------------------------


def _check_call_layering(project: Project, graph: CallGraph) -> list[Finding]:
    findings: list[Finding] = []
    seen: set[tuple] = set()
    for edge in graph.edges:
        if edge.kind != "direct" or edge.callee is None:
            continue
        caller = project.functions.get(edge.caller)
        callee = project.functions.get(edge.callee)
        if caller is None or callee is None:
            continue
        if "." not in caller.module:
            continue  # top-level / __init__ modules sit above the layering
        caller_rank = LAYER_RANKS.get(caller.module.split(".", 1)[0])
        callee_pkg = callee.module.split(".", 1)[0]
        callee_rank = LAYER_RANKS.get(callee_pkg)
        if caller_rank is None or callee_rank is None:
            continue
        if callee_rank > caller_rank:
            key = (edge.path, edge.lineno, edge.callee)
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                rule="LAY001", path=edge.path, line=edge.lineno, col=1,
                message=(
                    f"{caller.module.split('.', 1)[0]}/ (layer "
                    f"{caller_rank}) calls {edge.callee} ({callee_pkg}/, "
                    f"layer {callee_rank}); lower layers must not invoke "
                    "higher ones — this edge evades the import-level "
                    "LAY001 check"
                ),
            ))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def analyze_program(root: str | Path,
                    pyproject: str | Path | None = None) -> ProgramReport:
    """Run every whole-program analysis over the package at ``root``.

    ``pyproject`` locates the shared-state allowlist; when None, a
    ``pyproject.toml`` next to ``root``'s repository layout (two levels
    up, the conventional ``src/repro`` shape) is used if present.
    """
    root = Path(root)
    if pyproject is None:
        candidate = root.parent.parent / "pyproject.toml"
        pyproject = candidate if candidate.exists() else None
    else:
        pyproject = Path(pyproject)
    project = build_project(root)
    graph = build_call_graph(project)
    registry = load_allowlist(pyproject) if pyproject else {}
    extra_roots = _extra_hot_roots(pyproject) if pyproject else ()

    sites, orphan_findings = _annotation_sites(project)
    annotated = {s.site for s in sites}

    findings: list[Finding] = list(project.errors)
    findings.extend(_check_seed_collisions(project))
    findings.extend(_check_seed_escapes(project))
    findings.extend(_check_module_state(project, annotated))
    findings.extend(_check_instance_state(project, graph, annotated,
                                          extra_roots))
    findings.extend(_check_call_layering(project, graph))
    findings.extend(orphan_findings)
    findings.extend(_check_registry(sites, registry, pyproject))

    # Honor # repro: allow[RULE] suppressions (statement-scoped), exactly
    # like the per-module rules.
    by_path = {str(mod.path): mod for mod in project.modules.values()}
    kept: list[Finding] = []
    suppress_cache: dict[str, dict[int, set[str]]] = {}
    for finding in findings:
        mod = by_path.get(finding.path)
        if mod is not None:
            index = suppress_cache.get(finding.path)
            if index is None:
                index = suppressed_rule_index(mod.tree, mod.lines)
                suppress_cache[finding.path] = index
            if finding.rule in index.get(finding.line, ()):
                continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    edge_kinds = Counter(edge.kind for edge in graph.edges)
    stats = {
        "files": len(project.modules),
        "functions": len(project.functions),
        "classes": len(project.classes),
        "call_edges": len(graph.edges),
        "direct_edges": edge_kinds.get("direct", 0),
        "fuzzy_edges": edge_kinds.get("fuzzy", 0),
        "unknown_calls": edge_kinds.get("unknown", 0),
        "annotations": len(sites),
        "findings": len(kept),
        "findings_by_rule": dict(Counter(f.rule for f in kept)),
    }
    return ProgramReport(findings=kept, stats=stats)


def _extra_hot_roots(pyproject: Path) -> tuple[str, ...]:
    import tomllib

    try:
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    except (OSError, tomllib.TOMLDecodeError):
        return ()
    roots = (
        data.get("tool", {}).get("repro", {}).get("program", {})
        .get("hot_roots", [])
    )
    return tuple(r for r in roots if isinstance(r, str))


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------

_LINE_REF_RE = re.compile(r":\d+")


def fingerprint(finding: Finding) -> str:
    """A line-number-insensitive identity for baseline matching.

    Keyed on rule, path, and the message with ``:<line>`` references
    stripped — stable across unrelated edits that shift line numbers,
    invalidated when the finding itself materially changes.
    """
    path = Path(finding.path).as_posix()
    message = _LINE_REF_RE.sub("", finding.message)
    return f"{finding.rule}|{path}|{message}"


def load_baseline(path: Path) -> Counter:
    """The accepted-finding multiset from a baseline file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return Counter()
    if not isinstance(data, dict) or data.get("version") != BASELINE_VERSION:
        return Counter()
    counts: Counter = Counter()
    for entry in data.get("entries", []):
        if isinstance(entry, dict) and isinstance(
                entry.get("fingerprint"), str):
            counts[entry["fingerprint"]] += int(entry.get("count", 1))
    return counts


def write_baseline(path: Path, findings: list[Finding]) -> None:
    """Accept the current findings: write them as the new baseline."""
    counts = Counter(fingerprint(f) for f in findings)
    payload = {
        "version": BASELINE_VERSION,
        "comment": (
            "Accepted pre-existing findings of `python -m repro lint "
            "--program`. Baselined findings do not fail CI; new ones do. "
            "Regenerate with --update-baseline after fixing or accepting "
            "a finding."
        ),
        "entries": [
            {"fingerprint": fp, "count": n}
            for fp, n in sorted(counts.items())
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")


def apply_baseline(findings: list[Finding],
                   baseline: Counter) -> tuple[list[Finding], list[Finding]]:
    """Split findings into (baselined, fresh) against an accepted multiset."""
    budget = Counter(baseline)
    baselined: list[Finding] = []
    fresh: list[Finding] = []
    for finding in findings:
        fp = fingerprint(finding)
        if budget.get(fp, 0) > 0:
            budget[fp] -= 1
            baselined.append(finding)
        else:
            fresh.append(finding)
    return baselined, fresh


# ---------------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------------


def to_sarif(findings: list[Finding], fresh: list[Finding]) -> dict:
    """The findings as a minimal SARIF 2.1.0 log.

    Fresh findings carry level ``error`` (they fail the run); baselined
    ones are included as ``note`` so code-scanning UIs show the accepted
    debt without failing on it.
    """
    fresh_ids = {id(f) for f in fresh}
    rules = sorted({f.rule for f in findings})
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-program-analyzer",
                    "informationUri":
                        "https://example.invalid/docs/ANALYSIS.md",
                    "rules": [
                        {
                            "id": rule,
                            "shortDescription": {
                                "text": PROGRAM_RULES.get(rule, rule),
                            },
                        }
                        for rule in rules
                    ],
                },
            },
            "results": [
                {
                    "ruleId": finding.rule,
                    "level": ("error" if id(finding) in fresh_ids
                              else "note"),
                    "message": {"text": finding.message},
                    "locations": [{
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": Path(finding.path).as_posix(),
                            },
                            "region": {
                                "startLine": finding.line,
                                "startColumn": finding.col,
                            },
                        },
                    }],
                    "partialFingerprints": {
                        "reproProgram/v1": fingerprint(finding),
                    },
                }
                for finding in findings
            ],
        }],
    }
