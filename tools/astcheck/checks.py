"""Whole-program checks over the merged fact database.

Concurrency family:

  lock-order           builds the lock acquisition graph (edge A -> B when B
                       is acquired while A is held, directly or through any
                       chain of repo-local calls), reports every cycle and
                       every TREESIM_LOCK_RANK inversion.
  capture-race         lambdas handed to the ThreadPool that mutate a
                       by-reference capture without a MutexLock guard, an
                       atomic, per-index slot addressing, or an internally
                       synchronized type.
  blocking-under-lock  I/O, pool submission, or sleeping while a
                       treesim::Mutex is held (CondVar::Wait is the one
                       sanctioned wait and is modeled natively).

Perf family (see DESIGN.md section 14). The *hot set* is the call-graph
closure of the similarity-search entry points (Range/Knn/BatchKnn/Join/
pairwise) plus every lambda submitted through ``ThreadPool::ParallelFor``,
seeded by ``TREESIM_HOT`` and pruned by ``TREESIM_COLD`` annotations
(src/util/hot.h); files under tests/bench/fuzz/tools are out of scope.

  alloc-in-hot-loop            operator new, make_unique/make_shared, heavy
                               construction, or growth-prone container calls
                               inside a loop of a hot function without a
                               dominating ``reserve`` (dominance is
                               approximated by preceding-statement order on
                               the same receiver; growth through a
                               by-reference parameter is the caller's
                               responsibility and exempt).
  heavy-copy                   by-value parameters (unless consumed by
                               ``std::move`` — the sink idiom), implicit
                               copy-constructions, and by-value lambda
                               captures of registry heavy types.
  indirect-call-in-inner-loop  virtual dispatch or ``std::function``
                               invocation inside a hot *inner* loop
                               (nesting depth >= 2; a single per-candidate
                               probe loop is accepted).
  hot-throw                    throw-expressions and calls to throwing
                               standard APIs (``at``, ``stoi``, ...) on the
                               hot path, which must stay Status-based.

Lifetime family (see DESIGN.md section 15). Textual-order dataflow over the
per-function lifetime facts; files under tests/bench/fuzz/tools are out of
scope, like the perf family.

  use-after-move         a moved-from local/parameter path is read, method-
                         called, or re-moved with no reinitializing
                         assignment / clear() / reset() / assign() in
                         between. Validity-probing methods (empty, size,
                         ok, ...), sibling if/else arms, and moves inside
                         return statements are exempt; a move inside a loop
                         of a variable declared outside it with no reinit
                         in the loop body flags the move site (the next
                         iteration moves a moved-from value).
  escaping-capture       a lambda with by-reference or address-of-local
                         captures escapes the enclosing full-expression: it
                         is returned, stored into an outliving target, or
                         deferred via ThreadPool::Schedule/Submit
                         (ParallelFor joins before returning and is not
                         deferred). `this` and static captures are exempt,
                         as is storage that provably dies no later than
                         every risky capture (declaration-order proof).
  invalidated-reference  a reference/pointer/iterator obtained from
                         operator[]/front()/back()/begin()/data() on a
                         contiguous container is used after a growth call
                         on the same receiver; a reserve preceding the
                         binding exempts (the same dominance approximation
                         as alloc-in-hot-loop).

All checks are conservative in the same direction: an identity or call the
extractor could not resolve produces *no* edge, never a guessed one, so a
finding always corresponds to something actually visible in the AST.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import os
import re
from typing import Any

from . import facts

# ---------------------------------------------------------------------------
# Findings and suppressions
# ---------------------------------------------------------------------------

CONCURRENCY_CHECKS = ("lock-order", "capture-race", "blocking-under-lock")
PERF_CHECKS = ("alloc-in-hot-loop", "heavy-copy",
               "indirect-call-in-inner-loop", "hot-throw")
LIFETIME_CHECKS = ("use-after-move", "escaping-capture",
                   "invalidated-reference")
CHECKS = CONCURRENCY_CHECKS + PERF_CHECKS + LIFETIME_CHECKS

FAMILIES = {
    "concurrency": CONCURRENCY_CHECKS,
    "perf": PERF_CHECKS,
    "lifetime": LIFETIME_CHECKS,
}


@dataclasses.dataclass
class Finding:
    check: str
    file: str
    line: int
    function: str
    message: str
    lock: str = ""
    callee: str = ""

    def render(self) -> str:
        loc = f"{self.file}:{self.line}"
        return f"{loc}: [{self.check}] in `{self.function}`: {self.message}"

    def sort_key(self) -> tuple:
        return (self.check, self.file, self.line, self.message)


@dataclasses.dataclass
class Suppression:
    check: str
    reason: str
    file: str = "*"
    function: str = "*"
    callee: str = "*"
    lock: str = "*"
    used: bool = False

    def matches(self, f: Finding) -> bool:
        if self.check != f.check:
            return False
        return (fnmatch.fnmatch(f.file, self.file)
                and fnmatch.fnmatch(f.function, self.function)
                and fnmatch.fnmatch(f.callee, self.callee)
                and fnmatch.fnmatch(f.lock, self.lock))


def load_suppressions(path: str) -> list[Suppression]:
    import tomllib
    with open(path, "rb") as fh:
        doc = tomllib.load(fh)
    out: list[Suppression] = []
    for i, entry in enumerate(doc.get("suppress", [])):
        check = entry.get("check", "")
        if check not in CHECKS:
            raise ValueError(
                f"{path}: suppress[{i}]: unknown check {check!r} "
                f"(expected one of {', '.join(CHECKS)})")
        reason = entry.get("reason", "").strip()
        if not reason:
            raise ValueError(f"{path}: suppress[{i}]: a non-empty 'reason' "
                             "is required for every suppression")
        out.append(Suppression(
            check=check, reason=reason,
            file=entry.get("file", "*"),
            function=entry.get("function", "*"),
            callee=entry.get("callee", "*"),
            lock=entry.get("lock", "*")))
    return out


def apply_suppressions(findings: list[Finding],
                       sups: list[Suppression]
                       ) -> tuple[list[Finding], list[Finding], list[str]]:
    """Returns (kept, suppressed, warnings-for-unused-entries)."""
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for f in findings:
        hit = next((s for s in sups if s.matches(f)), None)
        if hit is not None:
            hit.used = True
            suppressed.append(f)
        else:
            kept.append(f)
    warnings = [
        f"unused suppression: check={s.check} function={s.function} "
        f"callee={s.callee} file={s.file} lock={s.lock} ({s.reason})"
        for s in sups if not s.used
    ]
    return kept, suppressed, warnings


# ---------------------------------------------------------------------------
# Lock ranks
# ---------------------------------------------------------------------------

_RANK_RE = re.compile(r"TREESIM_LOCK_RANK\((\d+)\)")


def load_lock_ranks(db: facts.FactDB, repo_root: str) -> dict[str, int]:
    """Reads TREESIM_LOCK_RANK(n) annotations from the source lines of the
    registered Mutex fields.

    clang-14 does not serialize ``annotate`` attribute payloads into the
    JSON dump, so the rank is read from the declaration's source text — the
    fact database already pins down exactly which file:line to look at.
    """
    ranks: dict[str, int] = {}
    line_cache: dict[str, list[str]] = {}
    for lock_id, info in db.mutex_fields.items():
        path = info.get("file", "")
        if not path:
            continue
        if not os.path.isabs(path):
            path = os.path.join(repo_root, path)
        if path not in line_cache:
            try:
                with open(path, "r", encoding="utf-8",
                          errors="replace") as fh:
                    line_cache[path] = fh.readlines()
            except OSError:
                line_cache[path] = []
        lines = line_cache[path]
        ln = info.get("line", 0)
        if 1 <= ln <= len(lines):
            m = _RANK_RE.search(lines[ln - 1])
            if m:
                ranks[lock_id] = int(m.group(1))
    return ranks


# ---------------------------------------------------------------------------
# Shared call-graph helpers
# ---------------------------------------------------------------------------

# Calls on the TREESIM_CHECK failure path: FatalMessage's destructor aborts
# the process, so "blocking" work there can never deadlock a healthy run.
_EXEMPT_CALLEE_SUBSTRINGS = ("internal_logging", "FatalMessage", "Voidify")


def _exempt_callee(callee: str) -> bool:
    return any(s in callee for s in _EXEMPT_CALLEE_SUBSTRINGS)


def _calls_in_scope(fn: facts.FunctionFact,
                    acq: facts.Acquisition) -> list[facts.CallSite]:
    return [c for c in fn.calls if acq.begin < c.offset <= acq.end]


def _acquisitions_in_scope(fn: facts.FunctionFact,
                           acq: facts.Acquisition) -> list[facts.Acquisition]:
    return [b for b in fn.acquisitions
            if b is not acq and acq.begin < b.begin < acq.end]


class _TransitiveAcquires:
    """ACQ*(f): every lock f may acquire, directly or through calls."""

    def __init__(self, db: facts.FactDB) -> None:
        self.db = db
        self.memo: dict[str, dict[str, tuple[str, ...]]] = {}

    def get(self, qname: str,
            _stack: "frozenset[str]" = frozenset()) -> dict[str, tuple[str, ...]]:
        """lock id -> call path (qnames) by which it is reached."""
        if qname in self.memo:
            return self.memo[qname]
        if qname in _stack:
            return {}
        fn = self.db.functions.get(qname)
        if fn is None:
            return {}
        stack = _stack | {qname}
        acc: dict[str, tuple[str, ...]] = {}
        for acq in fn.acquisitions:
            acc.setdefault(acq.lock, (qname,))
        for call in fn.calls:
            if _exempt_callee(call.callee):
                continue
            for callee in self.db.resolve(call.callee):
                for lock, path in self.get(callee.qname, stack).items():
                    acc.setdefault(lock, (qname,) + path)
        if not _stack:  # only memoize complete (non-cycle-truncated) results
            self.memo[qname] = acc
        return acc


# ---------------------------------------------------------------------------
# Check 1: lock-order
# ---------------------------------------------------------------------------


def check_lock_order(db: facts.FactDB,
                     ranks: dict[str, int]) -> list[Finding]:
    findings: list[Finding] = []
    # (src lock, dst lock) -> example site description
    edges: dict[tuple[str, str], dict[str, Any]] = {}
    acq_star = _TransitiveAcquires(db)

    for fn in db.functions.values():
        for acq in fn.acquisitions:
            for inner in _acquisitions_in_scope(fn, acq):
                if inner.lock == acq.lock:
                    continue  # same canonical lock, distinct instances
                edges.setdefault((acq.lock, inner.lock), {
                    "file": inner.file, "line": inner.line,
                    "function": fn.qname, "via": ()})
            for call in _calls_in_scope(fn, acq):
                if _exempt_callee(call.callee):
                    continue
                for callee in db.resolve(call.callee):
                    for lock, path in acq_star.get(callee.qname).items():
                        if lock == acq.lock:
                            continue
                        edges.setdefault((acq.lock, lock), {
                            "file": call.file, "line": call.line,
                            "function": fn.qname, "via": path})

    # Rank inversions: while holding a ranked lock, only strictly greater
    # ranks may be acquired.
    for (src, dst), site in sorted(edges.items()):
        rs, rd = ranks.get(src), ranks.get(dst)
        if rs is not None and rd is not None and rd <= rs:
            via = (" via " + " -> ".join(site["via"])) if site["via"] else ""
            findings.append(Finding(
                check="lock-order", file=site["file"], line=site["line"],
                function=site["function"], lock=dst,
                message=(f"acquires `{dst}` (rank {rd}) while holding "
                         f"`{src}` (rank {rs}); ranks must strictly "
                         f"increase{via}")))

    # Deadlock cycles: any strongly connected component with >= 2 locks.
    for scc in _sccs({s for s, _ in edges} | {d for _, d in edges},
                     edges.keys()):
        if len(scc) < 2:
            continue
        cycle = _example_cycle(scc, edges.keys())
        site = edges[(cycle[0], cycle[1])]
        pretty = " -> ".join(cycle + [cycle[0]])
        legs = []
        for a, b in zip(cycle, cycle[1:] + [cycle[0]]):
            e = edges[(a, b)]
            legs.append(f"`{a}` then `{b}` at {e['file']}:{e['line']} "
                        f"(in {e['function']})")
        findings.append(Finding(
            check="lock-order", file=site["file"], line=site["line"],
            function=site["function"], lock=cycle[0],
            message=(f"lock-order cycle {pretty}: " + "; ".join(legs))))
    return findings


def _sccs(nodes: set[str], edge_keys) -> list[list[str]]:
    """Iterative Tarjan strongly-connected components."""
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for s, d in edge_keys:
        adj[s].append(d)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    counter = 0

    for root in sorted(nodes):
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            node, it = work[-1]
            child = next(it, None)
            if child is not None:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(adj[child])))
                elif child in on_stack:
                    low[node] = min(low[node], index[child])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(sorted(comp))
    return out


def _example_cycle(scc: list[str], edge_keys) -> list[str]:
    """Shortest concrete cycle through the SCC, for the diagnostic."""
    import collections
    members = set(scc)
    adj = {n: sorted(d for s, d in edge_keys if s == n and d in members)
           for n in scc}
    start = scc[0]
    queue = collections.deque((n, [start, n]) for n in adj[start])
    seen: set[str] = set()
    while queue:
        node, path = queue.popleft()
        if node == start:
            return path[:-1]
        if node in seen:
            continue
        seen.add(node)
        for d in adj[node]:
            queue.append((d, path + [d]))
    return [start]  # unreachable for an SCC of size >= 2


# ---------------------------------------------------------------------------
# Check 2: capture-race
# ---------------------------------------------------------------------------

# Types that synchronize internally: mutating them from several workers is
# their documented contract.
THREADSAFE_TYPE_TOKENS = {
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "StructuredLog",
    "Tracer", "ThreadPool", "Mutex", "CondVar", "atomic", "atomic_bool",
    "atomic_int", "Latch", "Barrier",
}


def _is_threadsafe_type(qual: str) -> bool:
    return any(tok in THREADSAFE_TYPE_TOKENS
               for tok in facts._strip_type(qual))


def check_capture_race(db: facts.FactDB) -> list[Finding]:
    findings: list[Finding] = []
    for fn in db.functions.values():
        if not (fn.is_lambda and fn.submitted):
            continue
        guard_scopes = [(a.begin, a.end) for a in fn.acquisitions]
        seen: set[tuple[str, int]] = set()
        for m in fn.mutations:
            if m.atomic or m.per_slot:
                continue
            if _is_threadsafe_type(m.root_type):
                continue
            cap = fn.captures.get(m.root)
            if cap is not None and not cap.get("by_ref", True):
                continue  # by-value copy: mutation stays thread-local
            if cap is None and fn.lambda_mutable:
                # Capture list unrecoverable and the lambda is mutable, so
                # this may be a by-value member mutation; stay silent.
                continue
            if any(b <= m.offset <= e for b, e in guard_scopes):
                continue  # mutation under a MutexLock held by the lambda
            key = (m.root, m.line)
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                check="capture-race", file=m.file, line=m.line,
                function=fn.qname, callee=m.root,
                message=(f"lambda submitted to the thread pool mutates "
                         f"by-reference capture `{m.root}` "
                         f"({m.expr}) without a MutexLock guard, atomic, "
                         f"or per-index slot")))
    return findings


# ---------------------------------------------------------------------------
# Check 3: blocking-under-lock
# ---------------------------------------------------------------------------

IO_FUNCS = {
    "fprintf", "printf", "vfprintf", "fputs", "puts", "fwrite", "fputc",
    "putc", "putchar", "fopen", "fclose", "freopen", "fflush", "fread",
    "fgets", "fgetc", "getline", "scanf", "fscanf", "write", "read",
    "open", "close", "fsync",
}

WAIT_FUNCS = {
    "sleep", "usleep", "nanosleep", "sleep_for", "sleep_until", "join",
    "wait", "yield",
}

_SUBMIT_BASENAMES = {"Schedule", "Submit", "ParallelFor"}


def _blocking_reason(call: facts.CallSite) -> str | None:
    base = call.callee.split("::")[-1]
    if base in IO_FUNCS:
        return f"I/O call `{call.callee}`"
    if base in WAIT_FUNCS:
        return f"wait call `{call.callee}`"
    if call.submits or (base in _SUBMIT_BASENAMES
                        and "ThreadPool" in call.callee):
        return f"thread-pool submission `{call.callee}`"
    return None


class _TransitiveBlocks:
    """BLOCK*(f): first blocking operation reachable from f, with path."""

    def __init__(self, db: facts.FactDB) -> None:
        self.db = db
        self.memo: dict[str, "tuple[str, tuple[str, ...]] | None"] = {}

    def get(self, qname: str,
            _stack: "frozenset[str]" = frozenset()
            ) -> "tuple[str, tuple[str, ...]] | None":
        if qname in self.memo:
            return self.memo[qname]
        if qname in _stack:
            return None
        fn = self.db.functions.get(qname)
        if fn is None:
            return None
        stack = _stack | {qname}
        result: "tuple[str, tuple[str, ...]] | None" = None
        for call in fn.calls:
            if _exempt_callee(call.callee):
                continue
            reason = _blocking_reason(call)
            if reason is not None:
                result = (reason, (qname,))
                break
            for callee in self.db.resolve(call.callee):
                sub = self.get(callee.qname, stack)
                if sub is not None:
                    result = (sub[0], (qname,) + sub[1])
                    break
            if result is not None:
                break
        if not _stack:
            self.memo[qname] = result
        return result


def check_blocking_under_lock(db: facts.FactDB) -> list[Finding]:
    findings: list[Finding] = []
    blocks = _TransitiveBlocks(db)
    for fn in db.functions.values():
        for acq in fn.acquisitions:
            for call in _calls_in_scope(fn, acq):
                if _exempt_callee(call.callee):
                    continue
                reason = _blocking_reason(call)
                if reason is not None:
                    findings.append(Finding(
                        check="blocking-under-lock", file=call.file,
                        line=call.line, function=fn.qname,
                        lock=acq.lock, callee=call.callee,
                        message=f"{reason} while holding `{acq.lock}`"))
                    continue
                for callee in db.resolve(call.callee):
                    sub = blocks.get(callee.qname)
                    if sub is not None:
                        reason_str, path = sub
                        chain = " -> ".join(path)
                        findings.append(Finding(
                            check="blocking-under-lock", file=call.file,
                            line=call.line, function=fn.qname,
                            lock=acq.lock, callee=call.callee,
                            message=(f"{reason_str} reached via {chain} "
                                     f"while holding `{acq.lock}`")))
                        break
    return findings


# ---------------------------------------------------------------------------
# Hot-set derivation (perf family)
# ---------------------------------------------------------------------------

# Query-path entry points by basename; everything they reach is hot.
# RunRange/RunKnn (search/similarity_search.cc) are the one range pipeline
# and the one k-NN sweep behind the unit and weighted entry points.
HOT_ENTRY_BASENAMES = {
    "Range", "Knn", "BatchKnn", "RangeWeighted", "KnnWeighted",
    "RunRange", "RunKnn", "Join", "SelfJoin", "JoinImpl",
    "ComputePairwiseDistances",
}

# Files whose functions are never part of the measured hot path.
_EXCLUDED_PATH_SEGMENTS = {
    "tests", "test", "bench", "benchmarks", "fuzz", "tools", "third_party",
}

_HOT_RE = re.compile(r"\bTREESIM_HOT\b(?!_)")
_COLD_RE = re.compile(r"\bTREESIM_COLD\b(?!_)")


def _in_scope(fn: facts.FunctionFact, repo_root: str) -> bool:
    f = fn.file
    root = repo_root.rstrip("/") + "/"
    if f.startswith(root):
        rel = f[len(root):]
    elif not os.path.isabs(f):
        rel = f
    else:
        return False
    return not (set(rel.split("/")[:-1]) & _EXCLUDED_PATH_SEGMENTS)


def load_hot_annotations(db: facts.FactDB,
                         repo_root: str) -> tuple[set[str], set[str]]:
    """Reads TREESIM_HOT / TREESIM_COLD markers from function decl lines.

    Same mechanism as ``load_lock_ranks``: clang-14 does not serialize
    ``annotate`` payloads into the JSON dump, so the marker is read from
    the declaration's source line (the macro must share the line with the
    function name — documented in src/util/hot.h).
    """
    hot: set[str] = set()
    cold: set[str] = set()
    line_cache: dict[str, list[str]] = {}
    for fn in db.functions.values():
        path = fn.file
        if not path:
            continue
        if not os.path.isabs(path):
            path = os.path.join(repo_root, path)
        if path not in line_cache:
            try:
                with open(path, "r", encoding="utf-8",
                          errors="replace") as fh:
                    line_cache[path] = fh.readlines()
            except OSError:
                line_cache[path] = []
        lines = line_cache[path]
        if 1 <= fn.line <= len(lines):
            text = lines[fn.line - 1]
            if _HOT_RE.search(text):
                hot.add(fn.qname)
            if _COLD_RE.search(text):
                cold.add(fn.qname)
    return hot, cold


def derive_hot_set(db: facts.FactDB,
                   repo_root: str) -> dict[str, tuple[str, ...]]:
    """qname -> seed-to-function call path, for every hot function.

    Seeds: in-scope functions whose basename is a query entry point, every
    lambda submitted through ParallelFor from an in-scope function, and
    everything marked TREESIM_HOT. TREESIM_COLD removes a function and
    stops traversal through it. Calls inside function-local static
    initializers run once per process and do not propagate hotness.
    """
    hot_marks, cold_marks = load_hot_annotations(db, repo_root)
    seeds: dict[str, tuple[str, ...]] = {}
    for fn in db.functions.values():
        if fn.qname in cold_marks or not _in_scope(fn, repo_root):
            continue
        base = fn.qname.split("::")[-1]
        if base in HOT_ENTRY_BASENAMES or fn.qname in hot_marks:
            seeds[fn.qname] = (fn.qname,)
    for fn in db.functions.values():
        if not _in_scope(fn, repo_root):
            continue
        for call in fn.calls:
            if call.callee.split("::")[-1] != "ParallelFor":
                continue
            for lam in call.submits:
                lfn = db.functions.get(lam)
                if lfn is not None and lam not in cold_marks:
                    seeds.setdefault(lam, (fn.qname, lam))

    hot = dict(seeds)
    queue = list(seeds)
    while queue:
        qname = queue.pop(0)
        fn = db.functions.get(qname)
        if fn is None:
            continue
        for call in fn.calls:
            if call.static_init or _exempt_callee(call.callee):
                continue
            targets = list(db.resolve(call.callee)) + [
                db.functions[s] for s in call.submits
                if s in db.functions]
            for callee in targets:
                cq = callee.qname
                if cq in hot or cq in cold_marks:
                    continue
                if not _in_scope(callee, repo_root):
                    continue
                hot[cq] = hot[qname] + (cq,)
                queue.append(cq)
    return hot


def _hot_suffix(path: tuple[str, ...]) -> str:
    if len(path) <= 1:
        return ""
    return f" [hot via {' -> '.join(path)}]"


# ---------------------------------------------------------------------------
# Perf checks
# ---------------------------------------------------------------------------

# Types whose copies/constructions move real memory around. Token-matched
# against the written type, so `TreeDatabase` does not match `Tree`.
HEAVY_TYPE_TOKENS = {
    "Tree", "NormalizedBinaryTree", "BranchProfile", "TedTree",
    "vector", "string", "basic_string", "deque",
}

# Containers where a missing reserve turns N pushes into O(log N)
# reallocations; node-based containers cannot preallocate and are exempt.
_RESERVABLE_TOKENS = {"vector", "string", "basic_string"}

# By-value semantics these wrappers make cheap or mandatory.
_BY_VALUE_EXEMPT_TOKENS = {
    "unique_ptr", "shared_ptr", "weak_ptr", "iterator", "const_iterator",
    "reference_wrapper", "span", "string_view", "initializer_list",
}

# Standard APIs whose failure mode is an exception; the hot path must use
# the Status-based equivalents instead.
_THROWING_API_BASENAMES = {"at", "stoi", "stol", "stoll", "stod", "stof"}


def _is_by_value_heavy(qual: str) -> bool:
    q = qual.strip()
    if q.endswith("&") or "*" in q:
        return False
    toks = set(facts._strip_type(q))
    if toks & _BY_VALUE_EXEMPT_TOKENS:
        return False
    return bool(toks & HEAVY_TYPE_TOKENS)


def _max_loop_depth_at(fn: facts.FunctionFact, offset: int) -> int:
    depth = 0
    for lp in fn.loops:
        if lp.begin <= offset <= lp.end:
            depth = max(depth, lp.depth)
    return depth


def check_alloc_in_hot_loop(db: facts.FactDB,
                            hot: dict[str, tuple[str, ...]]
                            ) -> list[Finding]:
    findings: list[Finding] = []
    for qname, path in hot.items():
        fn = db.functions[qname]
        for a in fn.allocs:
            if _max_loop_depth_at(fn, a.offset) < 1:
                continue
            if a.kind == "new":
                msg = f"operator new of `{a.what}` inside a hot loop"
            elif a.kind == "make":
                msg = f"`{a.what}` allocation inside a hot loop"
            elif a.kind == "construct" and not a.copy:
                if not _is_by_value_heavy(a.what):
                    continue
                msg = (f"constructs `{a.what}` inside a hot loop; hoist "
                       f"the object out of the loop and reuse it")
            elif a.kind == "growth":
                if a.receiver_is_ref_param:
                    continue  # the caller owns the reservation
                if not a.receiver:
                    continue  # unresolvable receiver: stay conservative
                if a.receiver_type and not (
                        set(facts._strip_type(a.receiver_type))
                        & _RESERVABLE_TOKENS):
                    continue
                dominated = any(
                    r.kind == "reserve" and r.receiver == a.receiver
                    and r.offset < a.offset
                    for r in fn.allocs)
                if dominated:
                    continue
                msg = (f"`{a.receiver}.{a.what}(...)` grows inside a hot "
                       f"loop without a dominating reserve")
            else:
                continue
            findings.append(Finding(
                check="alloc-in-hot-loop", file=a.file, line=a.line,
                function=qname, callee=a.what or a.kind,
                message=msg + _hot_suffix(path)))
    return findings


def check_heavy_copy(db: facts.FactDB,
                     hot: dict[str, tuple[str, ...]]) -> list[Finding]:
    findings: list[Finding] = []
    for qname, path in hot.items():
        fn = db.functions[qname]
        for p in fn.params:
            if p.moved:
                continue  # sink parameter: one move, no copy
            if _is_by_value_heavy(p.qual):
                findings.append(Finding(
                    check="heavy-copy", file=p.file, line=p.line,
                    function=qname, callee=p.name,
                    message=(f"parameter `{p.name}` takes heavy type "
                             f"`{p.qual}` by value on the hot path; pass "
                             f"by const reference or std::move it into "
                             f"place" + _hot_suffix(path))))
        for a in fn.allocs:
            if a.kind == "construct" and a.copy and _is_by_value_heavy(
                    a.what):
                findings.append(Finding(
                    check="heavy-copy", file=a.file, line=a.line,
                    function=qname, callee=a.what,
                    message=(f"implicit copy-construction of `{a.what}` "
                             f"on the hot path" + _hot_suffix(path))))
        if fn.is_lambda:
            for name, cap in fn.captures.items():
                if cap.get("by_ref", True):
                    continue
                ctype = str(cap.get("type", ""))
                if _is_by_value_heavy(ctype):
                    findings.append(Finding(
                        check="heavy-copy", file=fn.file, line=fn.line,
                        function=qname, callee=name,
                        message=(f"lambda captures `{name}` (`{ctype}`) "
                                 f"by value on the hot path; capture by "
                                 f"reference" + _hot_suffix(path))))
    return findings


def check_indirect_call_in_inner_loop(db: facts.FactDB,
                                      hot: dict[str, tuple[str, ...]]
                                      ) -> list[Finding]:
    findings: list[Finding] = []
    for qname, path in hot.items():
        fn = db.functions[qname]
        for ic in fn.indirect_calls:
            if _max_loop_depth_at(fn, ic.offset) < 2:
                continue
            kind = ("virtual dispatch" if ic.kind == "virtual"
                    else "std::function invocation")
            findings.append(Finding(
                check="indirect-call-in-inner-loop", file=ic.file,
                line=ic.line, function=qname, callee=ic.callee,
                message=(f"{kind} (`{ic.callee}`) inside a hot inner "
                         f"loop; devirtualize, batch, or hoist the call"
                         + _hot_suffix(path))))
    return findings


def check_hot_throw(db: facts.FactDB,
                    hot: dict[str, tuple[str, ...]]) -> list[Finding]:
    findings: list[Finding] = []
    for qname, path in hot.items():
        fn = db.functions[qname]
        for t in fn.throws:
            findings.append(Finding(
                check="hot-throw", file=t.file, line=t.line,
                function=qname,
                message=("throw-expression on the hot path; return a "
                         "Status instead" + _hot_suffix(path))))
        for c in fn.calls:
            if c.static_init:
                continue
            if c.callee.split("::")[-1] in _THROWING_API_BASENAMES:
                findings.append(Finding(
                    check="hot-throw", file=c.file, line=c.line,
                    function=qname, callee=c.callee,
                    message=(f"call to throwing API `{c.callee}` on the "
                             f"hot path; use the Status-based accessor"
                             + _hot_suffix(path))))
    return findings


# ---------------------------------------------------------------------------
# Lifetime checks
# ---------------------------------------------------------------------------

# Methods that are defined on a moved-from object in its valid-but-
# unspecified state and are how code legitimately probes or recycles one.
_MOVED_SAFE_METHODS = {
    "empty", "size", "capacity", "length", "ok", "has_value", "valid",
    "swap", "get",
}

# Contiguous containers whose growth reallocates and invalidates element
# references; node-based containers keep elements pinned and are exempt.
_CONTIGUOUS_TOKENS = {"vector", "string", "basic_string", "deque"}


def _path_covers(base_path: str, sub_path: str) -> bool:
    """True when an event on `base_path` affects `sub_path` (same object or
    an enclosing subobject: moving `sweep` moves `sweep.heap`, but moving
    `sweep.heap` leaves `sweep.calls` alone)."""
    return sub_path == base_path or sub_path.startswith(base_path + ".")


def _reinit_between(evs: list, move, lo: int, hi: int) -> bool:
    """A reinit of the moved path (or an enclosing subobject) in (lo, hi]."""
    return any(
        r.kind == "reinit" and _path_covers(r.path, move.path)
        and lo < r.offset <= hi
        for r in evs)


def _diverging(fn: facts.FunctionFact, a: int, b: int) -> bool:
    """True when offsets a and b sit in sibling arms of one if/else — the
    two sites never execute in the same pass through the statement."""
    for br in fn.branches:
        for x, y in ((a, b), (b, a)):
            if (br.then_begin <= x <= br.then_end
                    and br.else_begin <= y <= br.else_end):
                return True
    return False


def check_use_after_move(db: facts.FactDB,
                         repo_root: str) -> list[Finding]:
    findings: list[Finding] = []
    for fn in db.functions.values():
        if not fn.var_events or not _in_scope(fn, repo_root):
            continue
        by_root: dict[str, list] = {}
        for e in fn.var_events:
            by_root.setdefault(e.root_id, []).append(e)
        for evs in by_root.values():
            moves = [e for e in evs
                     if e.kind == "move" and e.detail != "return std::move"]
            if not moves:
                continue
            flagged = False
            for use in evs:
                if flagged:
                    break
                if use.kind == "reinit":
                    continue
                if (use.kind == "use" and use.detail.endswith("()")
                        and use.detail[:-2] in _MOVED_SAFE_METHODS):
                    continue
                for m in moves:
                    # Strict ordering: every token of one macro expansion
                    # shares the expansion offset, so a macro that both
                    # moves and reads in a single expansion stays silent
                    # rather than guessing the inner order.
                    if use is m or use.offset <= m.offset:
                        continue
                    if not _path_covers(m.path, use.path):
                        continue
                    if _reinit_between(evs, m, m.offset, use.offset):
                        continue
                    if _diverging(fn, m.offset, use.offset):
                        continue
                    what = ("moved from again" if use.kind == "move"
                            else f"used ({use.detail})" if use.detail
                            else "read")
                    findings.append(Finding(
                        check="use-after-move", file=use.file,
                        line=use.line, function=fn.qname, callee=m.path,
                        message=(f"`{use.path}` is {what} after "
                                 f"`std::move({m.path})` at line {m.line} "
                                 f"with no reinitialization in between")))
                    flagged = True
                    break
            if flagged:
                continue
            # Loop-carried: moved inside a loop, declared outside it, and
            # never reinitialized in the loop body — the next iteration
            # moves from (or reads) a moved-from value.
            for m in moves:
                if flagged or m.decl_offset <= 0:
                    break
                for lp in fn.loops:
                    if not (lp.begin <= m.offset <= lp.end):
                        continue
                    if m.decl_offset >= lp.begin:
                        continue  # declared inside the loop: fresh each pass
                    if _reinit_between(evs, m, lp.begin - 1, lp.end):
                        continue
                    findings.append(Finding(
                        check="use-after-move", file=m.file, line=m.line,
                        function=fn.qname, callee=m.path,
                        message=(f"`{m.path}` is declared outside this "
                                 f"loop but moved from inside it with no "
                                 f"reinitialization in the loop body; the "
                                 f"next iteration moves a moved-from "
                                 f"value")))
                    flagged = True
                    break
    return findings


def check_escaping_capture(db: facts.FactDB,
                           repo_root: str) -> list[Finding]:
    findings: list[Finding] = []
    for fn in db.functions.values():
        if not fn.escapes or not _in_scope(fn, repo_root):
            continue
        for e in fn.escapes:
            if e.kind == "submit" and not e.deferred:
                continue  # ParallelFor joins before returning
            lam = db.functions.get(e.lam)
            if lam is None:
                continue
            risky = []
            for name, cap in lam.captures.items():
                if cap.get("is_this") or cap.get("is_static"):
                    continue  # object-managed / immortal storage
                if cap.get("by_ref") or cap.get("addr_of_local"):
                    risky.append((name, cap))
            if not risky:
                continue
            if (e.kind == "store" and not e.storage_is_member
                    and not e.storage_is_static and e.storage_offset >= 0
                    and all(cap.get("decl_offset", -1) >= 0
                            and cap["decl_offset"] <= e.storage_offset
                            for _, cap in risky)):
                # Every risky capture is declared at or before the storage,
                # so the storage dies first (or with it, for the recursive
                # `std::function f = [&f]...` self-capture idiom).
                continue
            names = ", ".join(f"`{n}`" for n, _ in risky)
            if e.kind == "return":
                how = "is returned"
            elif e.kind == "submit":
                how = f"is deferred via ThreadPool::{e.target}"
            else:
                how = f"is stored into `{e.target}`"
            findings.append(Finding(
                check="escaping-capture", file=e.file, line=e.line,
                function=fn.qname, callee=e.lam,
                message=(f"lambda capturing {names} by reference {how} "
                         f"and can outlive the captured frame; capture by "
                         f"value or bound the lambda's lifetime")))
    return findings


def check_invalidated_reference(db: facts.FactDB,
                                repo_root: str) -> list[Finding]:
    findings: list[Finding] = []
    for fn in db.functions.values():
        if not fn.ref_binds or not _in_scope(fn, repo_root):
            continue
        uses: dict[str, list] = {}
        for ev in fn.var_events:
            if ev.kind == "use":
                uses.setdefault(ev.root_id, []).append(ev)
        for rb in fn.ref_binds:
            if any(a.kind == "reserve" and a.receiver == rb.receiver
                   and a.offset < rb.offset
                   for a in fn.allocs):
                continue  # capacity settled before the reference was taken
            growths = sorted(
                (a for a in fn.allocs
                 if a.kind == "growth" and a.receiver == rb.receiver
                 and a.offset > rb.offset
                 and (not a.receiver_type
                      or set(facts._strip_type(a.receiver_type))
                      & _CONTIGUOUS_TOKENS)),
                key=lambda a: a.offset)
            hit = None
            for g in growths:
                if _diverging(fn, rb.offset, g.offset):
                    continue
                use = next(
                    (u for u in uses.get(rb.var_id, [])
                     if u.offset > g.offset
                     and not _diverging(fn, g.offset, u.offset)), None)
                if use is not None:
                    hit = (g, use)
                    break
            if hit is None:
                continue
            g, use = hit
            kind = "pointer/iterator" if rb.is_pointer else "reference"
            findings.append(Finding(
                check="invalidated-reference", file=use.file,
                line=use.line, function=fn.qname, callee=rb.name,
                message=(f"`{rb.name}` ({kind} into `{rb.receiver}` from "
                         f"`{rb.method}`) is used after "
                         f"`{rb.receiver}.{g.what}(...)` at line {g.line} "
                         f"may reallocate; re-take it after growth or "
                         f"reserve capacity before binding")))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_all(db: facts.FactDB, ranks: dict[str, int],
            sups: list[Suppression],
            families: tuple[str, ...] = ("concurrency",),
            repo_root: str = "."
            ) -> tuple[list[Finding], list[Finding], list[str]]:
    findings: list[Finding] = []
    if "concurrency" in families:
        findings += check_lock_order(db, ranks)
        findings += check_capture_race(db)
        findings += check_blocking_under_lock(db)
    if "perf" in families:
        hot = derive_hot_set(db, repo_root)
        findings += check_alloc_in_hot_loop(db, hot)
        findings += check_heavy_copy(db, hot)
        findings += check_indirect_call_in_inner_loop(db, hot)
        findings += check_hot_throw(db, hot)
    if "lifetime" in families:
        findings += check_use_after_move(db, repo_root)
        findings += check_escaping_capture(db, repo_root)
        findings += check_invalidated_reference(db, repo_root)
    # Deduplicate identical findings arising from functions merged across
    # TUs (header-inline bodies seen many times).
    unique: dict[tuple, Finding] = {}
    for f in findings:
        unique.setdefault(f.sort_key(), f)
    ordered = sorted(unique.values(), key=Finding.sort_key)
    return apply_suppressions(ordered, sups)
