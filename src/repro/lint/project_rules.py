"""Project-wide rules HD009–HD012: checks that need the whole tree.

These run in the engine's second pass over the :class:`ProjectIndex`
built from every linted file, which is what lets them see across module
boundaries: a lock acquired in one method and skipped in another, an
environment knob read far from the blessed resolvers, a metric name
typo'd relative to its family in a different package, or a dense array
produced in ``repro.core`` and consumed as packed words elsewhere.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.project import (
    AttrAccess,
    ClassIndex,
    ModuleIndex,
    ProjectIndex,
    ProjectRule,
)
from repro.lint.rules import register

# ----------------------------------------------------------------------
# HD009 — lock discipline / shared-state races in the threaded packages
# ----------------------------------------------------------------------


def _tracked_accesses(
    ci: ClassIndex,
) -> Iterator[Tuple[str, AttrAccess]]:
    """(method, access) pairs for race-relevant attributes.

    ``__init__`` is construction-time (pre-publication) and excluded;
    synchronisation primitives are themselves thread-safe and excluded.
    """
    skip = set(ci.sync_attrs) | set(ci.lock_attrs)
    for mname, method in ci.methods.items():
        if mname == "__init__":
            continue
        for acc in method.accesses:
            if acc.attr not in skip:
                yield mname, acc


@register
class LockDisciplineRule(ProjectRule):
    """Shared mutable state in threaded code must be lock-protected."""

    code = "HD009"
    name = "lock-discipline"
    description = (
        "In the threaded packages (repro.serve, repro.lifecycle, "
        "repro.parallel, repro.scenarios.load) instance attributes shared "
        "with a worker thread must be guarded: no unlocked writes visible "
        "to a thread entry point, no access to a lock-guarded attribute "
        "outside its `with self._lock`, no unlocked read-modify-write, no "
        "attribute re-assigned by several public lifecycle methods "
        "without a lock, and no two locks acquired in opposite orders "
        "(deadlock)."
    )
    scope = (
        "repro/serve",
        "repro/lifecycle",
        "repro/parallel",
        "repro/scenarios/load",
    )

    def check_project(
        self, index: ProjectIndex, *, respect_scope: bool = True
    ) -> Iterator[Finding]:
        for mod in index.modules:
            if mod.is_test or not self.in_scope(mod, respect_scope):
                continue
            for ci in mod.classes.values():
                yield from self._check_class(mod, ci)

    # -- clauses -------------------------------------------------------
    def _check_class(
        self, mod: ModuleIndex, ci: ClassIndex
    ) -> Iterator[Finding]:
        workers = ci.worker_methods()
        accesses = list(_tracked_accesses(ci))

        # Attrs with at least one *write* under a lock are "guarded":
        # the lock is evidently meant to protect their mutation.
        guarded: Dict[str, str] = {}
        for _, acc in accesses:
            if acc.kind in ("write", "rmw") and acc.locks:
                guarded.setdefault(acc.attr, acc.locks[0])

        # (a) worker-thread unlocked write vs unlocked public access.
        worker_writes: Dict[str, Tuple[str, AttrAccess]] = {}
        for mname, acc in accesses:
            if mname in workers and acc.kind in ("write", "rmw") and not acc.locks:
                worker_writes.setdefault(acc.attr, (mname, acc))
        flagged_a: Set[str] = set()
        for mname, acc in accesses:
            method = ci.methods[mname]
            if (
                acc.attr in worker_writes
                and acc.attr not in flagged_a
                and mname not in workers
                and method.is_public
                and not acc.locks
            ):
                wname, _ = worker_writes[acc.attr]
                flagged_a.add(acc.attr)
                yield self.finding_at(
                    mod.path, acc.line, acc.col,
                    f"`{ci.name}.{acc.attr}` is written by worker-thread "
                    f"entry point `{wname}` and accessed here in "
                    f"`{mname}` with no common lock held",
                )

        # (b) access to a guarded attribute outside its lock.
        flagged_b: Set[str] = set()
        for mname, acc in accesses:
            if (
                acc.attr in guarded
                and not acc.locks
                and acc.attr not in flagged_b
                and acc.attr not in flagged_a
            ):
                flagged_b.add(acc.attr)
                yield self.finding_at(
                    mod.path, acc.line, acc.col,
                    f"`{ci.name}.{acc.attr}` is guarded by "
                    f"`self.{guarded[acc.attr]}` elsewhere but accessed "
                    f"here in `{mname}` without it",
                )

        # (c) inconsistent lock acquisition order across methods.
        order_sites: Dict[Tuple[str, str], str] = {}
        for mname, method in ci.methods.items():
            for pair in method.lock_pairs:
                order_sites.setdefault(pair, mname)
        for (a, b), mname in sorted(order_sites.items()):
            if a < b and (b, a) in order_sites:
                other = order_sites[(b, a)]
                line = ci.methods[other].line
                yield self.finding_at(
                    mod.path, line, 0,
                    f"`{ci.name}` acquires `self.{a}` -> `self.{b}` in "
                    f"`{mname}` but `self.{b}` -> `self.{a}` in "
                    f"`{other}`; inconsistent order can deadlock",
                )

        if not mod.uses_threads:
            return

        # (d) unlocked read-modify-write in a thread-using module.
        flagged_d: Set[str] = set()
        for mname, acc in accesses:
            if (
                acc.kind == "rmw"
                and not acc.locks
                and acc.attr not in flagged_d
                and acc.attr not in flagged_a
                and acc.attr not in flagged_b
            ):
                flagged_d.add(acc.attr)
                yield self.finding_at(
                    mod.path, acc.line, acc.col,
                    f"unlocked read-modify-write of `{ci.name}.{acc.attr}` "
                    f"in `{mname}`; concurrent callers can lose updates",
                )

        # (e) the same attr re-assigned unlocked from several public
        # lifecycle methods (start/stop-style TOCTOU races).
        writers: Dict[str, List[Tuple[str, AttrAccess]]] = {}
        for mname, acc in accesses:
            if (
                acc.kind in ("write", "rmw")
                and not acc.locks
                and ci.methods[mname].is_public
                and mname not in workers
            ):
                per = writers.setdefault(acc.attr, [])
                if all(m != mname for m, _ in per):
                    per.append((mname, acc))
        for attr, sites in sorted(writers.items()):
            if len(sites) < 2 or attr in flagged_a | flagged_b | flagged_d:
                continue
            names = ", ".join(m for m, _ in sites)
            _, acc = sites[1]
            yield self.finding_at(
                mod.path, acc.line, acc.col,
                f"`{ci.name}.{attr}` is re-assigned without a lock from "
                f"several public methods ({names}); concurrent lifecycle "
                f"calls race on it",
            )


# ----------------------------------------------------------------------
# HD010 — os.environ reads outside the blessed config resolvers
# ----------------------------------------------------------------------

#: Modules allowed to read the environment directly: the documented
#: REPRO_* resolvers.  Everything else must go through them so knobs
#: stay centrally discoverable.
BLESSED_ENV_READERS = (
    "repro/parallel/pool.py",
    "repro/kernels/registry.py",
    "repro/kernels/native_build.py",
    "repro/utils/contracts.py",
    "repro/obs/spans.py",
    "repro/serve/config.py",
)


@register
class ConfigDriftRule(ProjectRule):
    """Environment knobs are read only by the blessed resolvers."""

    code = "HD010"
    name = "config-drift"
    description = (
        "os.environ / os.getenv reads are confined to the blessed "
        "resolvers (repro.parallel.effective_workers, the kernel registry, "
        "repro.utils.contracts, repro.obs.spans, "
        "repro.serve.config.resolve_serve_config) so every REPRO_* knob "
        "has one documented owner; ad-hoc reads elsewhere drift out of "
        "the config surface."
    )
    scope = ("src/repro", "repro/")

    def check_project(
        self, index: ProjectIndex, *, respect_scope: bool = True
    ) -> Iterator[Finding]:
        for mod in index.modules:
            if mod.is_test or not self.in_scope(mod, respect_scope):
                continue
            norm = mod.path.replace("\\", "/")
            if any(norm.endswith(b) for b in BLESSED_ENV_READERS):
                continue
            for read in mod.env_reads:
                what = f"`{read.var}`" if read.var else "the environment"
                yield self.finding_at(
                    mod.path, read.line, read.col,
                    f"environment read of {what} outside the blessed "
                    f"config resolvers; route it through "
                    f"repro.parallel.effective_workers or the kernel "
                    f"registry so the knob stays documented",
                )


# ----------------------------------------------------------------------
# HD011 — observability drift: metric/span name hygiene + test corpus
# ----------------------------------------------------------------------

_NAME_GRAMMAR_HELP = "lowercase dot-separated segments, e.g. `serve.requests`"


def _good_grammar(name: str) -> bool:
    if not name:
        return False
    for seg in name.replace("-", ".").replace("_", ".").split("."):
        if not seg or not all(c.islower() or c.isdigit() for c in seg):
            return False
    return True


def _edit_distance_le1(a: str, b: str) -> bool:
    """True when a != b and Levenshtein(a, b) == 1."""
    if a == b:
        return False
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) == 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


@register
class ObservabilityDriftRule(ProjectRule):
    """obs metric/span names stay consistent and test-corpus covered."""

    code = "HD011"
    name = "obs-drift"
    description = (
        "repro.obs metric/span name literals must keep one kind per "
        "name, use the lowercase dotted grammar, avoid near-miss prefix "
        "families (a lone `serv.*` next to an established `serve.*` is a "
        "typo creating a new series), and every serve.*/lifecycle.*/"
        "loadgen.* metric must appear in the Prometheus test corpus "
        "under its exported repro_* name."
    )
    scope = ("src/repro", "repro/")

    def check_project(
        self, index: ProjectIndex, *, respect_scope: bool = True
    ) -> Iterator[Finding]:
        # Declarations: src modules only; coverage corpus: test modules.
        decls: List[Tuple[ModuleIndex, str, str, int, int]] = []
        for mod in index.modules:
            if mod.is_test:
                continue
            for obs in mod.obs_names:
                decls.append((mod, obs.kind, obs.name, obs.line, obs.col))

        # (a) the same name declared under conflicting metric kinds.
        first_kind: Dict[str, Tuple[str, ModuleIndex, int]] = {}
        for mod, kind, name, line, col in decls:
            if kind == "span":
                continue
            prev = first_kind.get(name)
            if prev is None:
                first_kind[name] = (kind, mod, line)
            elif prev[0] != kind and self.in_scope(mod, respect_scope):
                yield self.finding_at(
                    mod.path, line, col,
                    f"metric `{name}` declared as {kind} here but as "
                    f"{prev[0]} in {prev[1].path}:{prev[2]}; one name, "
                    f"one kind",
                )

        # (c) grammar.
        for mod, kind, name, line, col in decls:
            if not _good_grammar(name) and self.in_scope(mod, respect_scope):
                yield self.finding_at(
                    mod.path, line, col,
                    f"obs name `{name}` violates the naming grammar "
                    f"({_NAME_GRAMMAR_HELP})",
                )

        # (b) near-miss prefix families (typo'd first segment).
        families: Dict[str, Set[str]] = {}
        sites: Dict[str, Tuple[ModuleIndex, int, int, str]] = {}
        for mod, kind, name, line, col in decls:
            fam = name.split(".", 1)[0]
            families.setdefault(fam, set()).add(name)
            sites.setdefault(fam, (mod, line, col, name))
        for fam, names in sorted(families.items()):
            if len(names) != 1:
                continue
            for other, other_names in families.items():
                if len(other_names) >= 2 and _edit_distance_le1(fam, other):
                    mod, line, col, name = sites[fam]
                    if self.in_scope(mod, respect_scope):
                        yield self.finding_at(
                            mod.path, line, col,
                            f"obs name `{name}` starts a one-off family "
                            f"`{fam}.*` one edit away from the "
                            f"established `{other}.*`; probable typo "
                            f"creating a new series",
                        )
                    break

        # (d) Prometheus test-corpus coverage for the served families.
        if not index.has_test_modules:
            return
        corpus: Set[str] = set()
        for mod in index.modules:
            if mod.is_test:
                corpus.update(mod.prom_literals)
        seen: Set[str] = set()
        for mod, kind, name, line, col in decls:
            if kind == "span" or name in seen:
                continue
            seen.add(name)
            if not (
                name.startswith("serve.")
                or name.startswith("lifecycle.")
                or name.startswith("loadgen.")
            ):
                continue
            base = "repro_" + name.replace(".", "_").replace("-", "_")
            if any(lit.startswith(base) for lit in corpus):
                continue
            if self.in_scope(mod, respect_scope):
                yield self.finding_at(
                    mod.path, line, col,
                    f"metric `{name}` (exported as `{base}*`) appears in "
                    f"no test module's Prometheus corpus; add it to the "
                    f"exposition test so renames/typos fail CI",
                )


# ----------------------------------------------------------------------
# HD012 — cross-module dense arrays flowing into packed-only consumers
# ----------------------------------------------------------------------


@register
class CrossModulePackedTaintRule(ProjectRule):
    """Dense uint8 producers must not feed packed-word consumers."""

    code = "HD012"
    name = "cross-module-packed-taint"
    description = (
        "A function returning a dense (one element per bit) uint8 array "
        "in one module must not flow positionally into a packed-uint64 "
        "consumer (hamming_block, topk_hamming, popcount, ...) in "
        "another module; HD004 already catches the single-file case, "
        "this closes the cross-boundary one."
    )
    scope = ("src/repro", "repro/")

    @staticmethod
    def _resolve_callee(index: ProjectIndex, mod: ModuleIndex, callee: str):
        """Map a call-site name to its (defining module, FunctionIndex)."""
        if "." in callee:
            prefix, fn = callee.rsplit(".", 1)
            target = mod.imports.get(prefix)
            if target is not None:
                tmod, orig = target
                module = f"{tmod}.{orig}" if orig else tmod
            else:
                module = prefix
            return index.resolve_function(module, fn)
        target = mod.imports.get(callee)
        if target is None:
            return None  # local name: single-file case, HD004's turf
        tmod, orig = target
        return index.resolve_function(tmod, orig or callee)

    def check_project(
        self, index: ProjectIndex, *, respect_scope: bool = True
    ) -> Iterator[Finding]:
        for mod in index.modules:
            if mod.is_test or not self.in_scope(mod, respect_scope):
                continue
            for flow in mod.packed_flows:
                resolved = self._resolve_callee(index, mod, flow.callee)
                if resolved is None:
                    continue
                src_mod, fn = resolved
                if src_mod.module == mod.module or not fn.returns_dense:
                    continue
                yield self.finding_at(
                    mod.path, flow.line, flow.col,
                    f"dense uint8 array from `{src_mod.module}.{fn.name}` "
                    f"flows into packed-only consumer "
                    f"`{flow.consumer}` (arg {flow.arg_pos}); pack with "
                    f"pack_bits before crossing the boundary",
                )


PROJECT_RULE_CODES = ("HD009", "HD010", "HD011", "HD012")

__all__ = [
    "BLESSED_ENV_READERS",
    "ConfigDriftRule",
    "CrossModulePackedTaintRule",
    "LockDisciplineRule",
    "ObservabilityDriftRule",
    "PROJECT_RULE_CODES",
]
