#!/usr/bin/env python3
"""Repo-specific lint rules that clang-tidy cannot express.

Checks, over ``src/`` (and headers under ``fuzz/`` if any appear):

  guard       Include guards must be ``TREESIM_<PATH>_H_`` derived from the
              path relative to src/ (e.g. src/util/status.h ->
              TREESIM_UTIL_STATUS_H_), with a matching #define directly
              after the #ifndef and a trailing ``#endif  // <GUARD>``.
  using       No ``using namespace`` at any scope inside a header.
  assert      No bare ``assert()`` / ``<cassert>`` in library code — use
              TREESIM_CHECK (always on) or TREESIM_DCHECK (debug only),
              which print the failing expression and abort cleanly under
              the fuzzers.
  nodiscard   ``Status`` and ``StatusOr`` must stay ``[[nodiscard]]`` so
              the compiler enforces consumption of every result.
  discarded   Heuristic backstop for the same rule: a statement consisting
              solely of a call to a Status/StatusOr-returning function
              (collected from the headers) discards its result.
  rawsync     No raw standard-library concurrency primitives
              (``std::mutex``, ``std::thread``, ``std::lock_guard``, ...)
              outside ``src/util/`` — use treesim::Mutex / MutexLock /
              CondVar / ThreadPool from util/sync.h and util/thread_pool.h,
              which carry the Clang thread-safety annotations; a raw
              primitive is invisible to the analysis. This rule also scans
              ``tools/`` and ``bench/``.
  chrono      No ``std::chrono`` / ``<chrono>`` outside ``src/util/`` and
              ``bench/`` — ad-hoc timing bypasses the observability layer.
              Time stages with util/stopwatch.h and record the result into
              a util/metrics.h histogram (or wrap the stage in a
              TREESIM_TRACE_SPAN), so every measurement lands in the
              registry and compiles out under TREESIM_METRICS=OFF. This
              rule also scans ``tools/``.
  rawlog      No raw stdio/iostream output (``printf``, ``fprintf``,
              ``puts``, ``std::cout``, ``std::cerr``) inside
              ``src/search/`` — query engines report through QueryStats,
              the metrics registry, and the structured query log
              (util/structured_log.h), never by printing. Printing belongs
              to the binaries: ``bench/`` and ``tools/`` are exempt, as is
              the rest of ``src/`` (util/logging.h itself, parser error
              paths, ...).
  querytail   The per-query telemetry tail — ``ScopedQueryContext``,
              ``FlightRecorder::Global``, ``TREESIM_WINDOW_RECORD`` and
              ``StructuredLog::Global`` — appears inside ``src/search/``
              only in ``query_scope.{h,cc}``. Every search and join entry
              point opens one QueryScope, which records the query exactly
              once on every return path; a hand-copied tail drifts (it
              was how weighted queries lost their query-log record).
  hotalloc    No ``new``, ``make_unique``, or ``std::function`` in the
              headers under ``src/core/`` and ``src/ted/`` — these are the
              innermost kernels of the distance computation, inlined into
              every probe, and an allocation or type-erased call there is
              paid once per candidate pair. This is the cheap textual
              backstop for tools/astcheck's AST-grade perf pass
              (``--checks=perf``), which sees through wrappers but needs a
              clang toolchain; the lint fires everywhere, instantly.
  badmove     No ``std::move`` on a const-qualified or trivially-copyable
              scalar variable in ``src/``. Moving a const object silently
              degrades to a copy (the move constructor cannot bind), and
              moving an int/bool/double is noise that suggests a transfer
              which never happens. Declarations are collected per file
              with a textual heuristic, so only ``std::move(name)`` of a
              name declared const or scalar in the same file fires —
              tools/astcheck's lifetime pass (``--checks=lifetime``) is
              the AST-grade companion that tracks what happens after the
              move.
  sigsafe     ``src/util/triage.cc`` (the crash-time dump writer, which
              runs inside fatal signal handlers) must stay async-signal-
              safe: no heap (``malloc``/``free``/``new``/``make_unique``),
              no stdio (``fprintf``/``snprintf``/...), no allocating C++
              types (``std::string``/``std::vector``/streams), and no
              locks (``MutexLock``/``.Lock()``). The handler may only
              format into fixed buffers and call the small POSIX
              async-signal-safe set (write/open/close/clock_gettime/...).
  rawwait     No busy-waits or leaked threads in ``src/``:
              ``std::this_thread::sleep_for`` / ``sleep_until``,
              ``sleep()`` / ``usleep()`` / ``nanosleep()``, and
              ``std::thread::detach`` are all banned. Waiting is
              CondVar::Wait's job (it releases the mutex and wakes
              precisely); a sleep either races or wastes latency, and a
              detached thread outlives shutdown — both are exactly the
              bugs the upcoming serverd work cannot afford.

Exit status 0 when clean, 1 when any finding is reported. Run from
anywhere: paths are resolved relative to the repo root.
``--self-test`` runs the rules against synthetic known-bad/known-good
files in a temp tree and exits 0 only if every expected finding (and no
unexpected one) fires.
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

# Calls through these wrappers consume the Status they are handed.
CONSUMING_PREFIXES = (
    "return",
    "TREESIM_CHECK_OK",
    "TREESIM_DCHECK_OK",
    "TREESIM_ASSIGN_OR_RETURN",
    "TREESIM_RETURN_IF_ERROR",
)

# Standard-library concurrency primitives that bypass the annotated wrappers
# in util/sync.h / util/thread_pool.h (std::atomic is deliberately absent:
# lock-free counters need no capability tracking).
RAW_SYNC_PRIMITIVES = (
    "mutex",
    "timed_mutex",
    "recursive_mutex",
    "recursive_timed_mutex",
    "shared_mutex",
    "shared_timed_mutex",
    "thread",
    "jthread",
    "lock_guard",
    "unique_lock",
    "scoped_lock",
    "shared_lock",
    "condition_variable",
    "condition_variable_any",
)


def strip_comments_and_strings(line: str) -> str:
    """Blanks out // comments, string and char literals (single line only)."""
    out = []
    i = 0
    in_string = None
    while i < len(line):
        c = line[i]
        if in_string:
            if c == "\\":
                i += 2
                continue
            if c == in_string:
                in_string = None
            i += 1
            continue
        if c in ('"', "'"):
            in_string = c
            out.append(c)
            i += 1
            continue
        if c == "/" and line[i : i + 2] == "//":
            break
        out.append(c)
        i += 1
    return "".join(out)


class Linter:
    def __init__(self) -> None:
        self.findings: list[str] = []

    def report(self, path: pathlib.Path, line_no: int, rule: str,
               message: str) -> None:
        rel = path.relative_to(REPO_ROOT)
        self.findings.append(f"{rel}:{line_no}: [{rule}] {message}")

    # ---- guard ----------------------------------------------------------

    def check_include_guard(self, path: pathlib.Path, lines: list[str]) -> None:
        rel = path.relative_to(SRC_ROOT).as_posix()
        guard = "TREESIM_" + re.sub(r"[^A-Za-z0-9]", "_", rel).upper() + "_"
        directives = [
            (i + 1, line.strip())
            for i, line in enumerate(lines)
            if line.lstrip().startswith("#")
        ]
        if len(directives) < 2:
            self.report(path, 1, "guard", f"missing include guard {guard}")
            return
        (ifndef_no, ifndef), (_, define) = directives[0], directives[1]
        if ifndef != f"#ifndef {guard}":
            self.report(path, ifndef_no, "guard",
                        f"first directive must be '#ifndef {guard}', "
                        f"got '{ifndef}'")
            return
        if define != f"#define {guard}":
            self.report(path, ifndef_no + 1, "guard",
                        f"'#ifndef {guard}' must be followed by "
                        f"'#define {guard}'")
        tail = [(i + 1, line.strip()) for i, line in enumerate(lines)
                if line.strip()]
        last_no, last = tail[-1]
        if last != f"#endif  // {guard}":
            self.report(path, last_no, "guard",
                        f"file must end with '#endif  // {guard}'")

    # ---- using / assert -------------------------------------------------

    def check_header_using(self, path: pathlib.Path,
                           lines: list[str]) -> None:
        for i, raw in enumerate(lines, start=1):
            line = strip_comments_and_strings(raw)
            if re.search(r"\busing\s+namespace\b", line):
                self.report(path, i, "using",
                            "'using namespace' is not allowed in headers")

    def check_assert(self, path: pathlib.Path, lines: list[str]) -> None:
        for i, raw in enumerate(lines, start=1):
            line = strip_comments_and_strings(raw)
            if re.search(r"#\s*include\s*<(cassert|assert\.h)>", line):
                self.report(path, i, "assert",
                            "<cassert> is banned in src/; use util/logging.h "
                            "TREESIM_CHECK / TREESIM_DCHECK")
            if re.search(r"(?<![\w.])assert\s*\(", line):
                self.report(path, i, "assert",
                            "bare assert(); use TREESIM_CHECK (always on) or "
                            "TREESIM_DCHECK (debug only)")
            if re.search(r"\bstatic_assert\s*\(", raw):
                # static_assert is fine; the negative lookbehind above already
                # excludes it, this branch documents that explicitly.
                pass

    # ---- rawsync --------------------------------------------------------

    RAW_SYNC_RE = re.compile(
        r"\bstd\s*::\s*(" + "|".join(RAW_SYNC_PRIMITIVES) + r")\b")

    def check_raw_sync(self, path: pathlib.Path, lines: list[str]) -> None:
        if path.is_relative_to(SRC_ROOT / "util"):
            return  # the annotated wrappers themselves live here
        for i, raw in enumerate(lines, start=1):
            line = strip_comments_and_strings(raw)
            m = self.RAW_SYNC_RE.search(line)
            if m:
                self.report(path, i, "rawsync",
                            f"raw std::{m.group(1)} outside src/util/; use "
                            "treesim::Mutex/MutexLock/CondVar (util/sync.h) "
                            "or ThreadPool (util/thread_pool.h) so the Clang "
                            "thread-safety analysis sees the lock")

    # ---- chrono ---------------------------------------------------------

    CHRONO_RE = re.compile(r"\bstd\s*::\s*chrono\b|#\s*include\s*<chrono>")

    def check_chrono(self, path: pathlib.Path, lines: list[str]) -> None:
        if path.is_relative_to(SRC_ROOT / "util"):
            return  # Stopwatch and the tracer clock live here
        if path.is_relative_to(REPO_ROOT / "bench"):
            return  # wall-clock harness timing is the benches' job
        for i, raw in enumerate(lines, start=1):
            line = strip_comments_and_strings(raw)
            if self.CHRONO_RE.search(line):
                self.report(path, i, "chrono",
                            "std::chrono outside src/util/ and bench/; time "
                            "with util/stopwatch.h and record into a "
                            "util/metrics.h histogram or TREESIM_TRACE_SPAN "
                            "so the measurement compiles out with "
                            "TREESIM_METRICS=OFF")

    # ---- rawlog ---------------------------------------------------------

    RAW_LOG_RE = re.compile(
        r"\bstd\s*::\s*(?:printf|fprintf|puts|cout|cerr)\b"
        r"|(?<![\w:])(?:printf|fprintf|puts)\s*\(")

    def check_raw_log(self, path: pathlib.Path, lines: list[str]) -> None:
        if not path.is_relative_to(SRC_ROOT / "search"):
            return
        for i, raw in enumerate(lines, start=1):
            line = strip_comments_and_strings(raw)
            if self.RAW_LOG_RE.search(line):
                self.report(path, i, "rawlog",
                            "raw stdio/iostream output in src/search/; "
                            "report through QueryStats, util/metrics.h, or "
                            "the structured query log "
                            "(util/structured_log.h) — printing is the "
                            "binaries' job")

    # ---- querytail ------------------------------------------------------

    QUERY_TAIL_RE = re.compile(
        r"\bScopedQueryContext\b|\bTREESIM_WINDOW_RECORD\b"
        r"|\b(?:FlightRecorder|StructuredLog)\s*::\s*Global\b")
    QUERY_SCOPE_FILES = ("query_scope.h", "query_scope.cc")

    def check_query_tail(self, path: pathlib.Path, lines: list[str]) -> None:
        if (not path.is_relative_to(SRC_ROOT / "search")
                or path.name in self.QUERY_SCOPE_FILES):
            return
        for i, raw in enumerate(lines, start=1):
            line = strip_comments_and_strings(raw)
            if self.QUERY_TAIL_RE.search(line):
                self.report(path, i, "querytail",
                            "query context, flight record, latency window "
                            "or query log outside search/query_scope.{h,cc}; "
                            "open a QueryScope instead")

    # ---- rawwait --------------------------------------------------------

    RAW_WAIT_RE = re.compile(
        r"\bstd\s*::\s*this_thread\s*::\s*sleep_(?:for|until)\b"
        r"|(?<![\w:.])(?:sleep|usleep|nanosleep)\s*\("
        r"|(?:\.|->)\s*detach\s*\(")

    def check_raw_wait(self, path: pathlib.Path, lines: list[str]) -> None:
        if not path.is_relative_to(SRC_ROOT):
            return
        for i, raw in enumerate(lines, start=1):
            line = strip_comments_and_strings(raw)
            m = self.RAW_WAIT_RE.search(line)
            if m:
                self.report(path, i, "rawwait",
                            f"'{m.group(0).strip()}' in src/; sleeps "
                            "busy-wait and detached threads outlive "
                            "shutdown — block on treesim::CondVar::Wait "
                            "(util/sync.h) and join workers via ThreadPool "
                            "(util/thread_pool.h)")

    # ---- sigsafe --------------------------------------------------------

    # Non-async-signal-safe constructs: heap, stdio, allocating C++ types,
    # and lock acquisition. `(?<![\w.])` lets `std::fprintf` match (the
    # char before `fprintf` is ':') while skipping `my_fprintf`.
    SIGSAFE_RE = re.compile(
        r"(?<![\w.])(?:malloc|calloc|realloc|free|fopen|fclose|fprintf|"
        r"printf|snprintf|sprintf|vsnprintf|puts|fputs|fwrite|fflush)\s*\("
        r"|(?<![\w:.])new\s+[A-Za-z_(:]"
        r"|\bmake_(?:unique|shared)\s*<"
        r"|\bstd\s*::\s*(?:string|vector|cout|cerr|[io]?stringstream"
        r"|to_string)\b"
        r"|\bMutexLock\b"
        r"|(?:\.|->)\s*[Ll]ock\s*\(")

    def check_sigsafe(self, path: pathlib.Path, lines: list[str]) -> None:
        if path != SRC_ROOT / "util" / "triage.cc":
            return
        for i, raw in enumerate(lines, start=1):
            line = strip_comments_and_strings(raw)
            m = self.SIGSAFE_RE.search(line)
            if m:
                self.report(path, i, "sigsafe",
                            f"'{m.group(0).strip()}' in the crash-handler "
                            "TU; triage.cc runs inside fatal signal "
                            "handlers and may only use fixed buffers, "
                            "relaxed atomics, and the POSIX async-signal-"
                            "safe set (write/open/close/clock_gettime/"
                            "getpid/sigaction/raise)")

    # ---- badmove --------------------------------------------------------

    TRIVIAL_TYPES = frozenset({
        "bool", "char", "short", "int", "long", "unsigned", "float",
        "double", "size_t", "ptrdiff_t", "int8_t", "int16_t", "int32_t",
        "int64_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    })
    # `[const] Type[<...>][&] name` followed by an initializer, separator,
    # or range-for colon — catches locals, by-value/const-ref params, and
    # range-for bindings. Names are scoped per file, so a name is only
    # classified const/trivial when EVERY declaration of it in the file
    # agrees (a non-const local shadowing a const ref elsewhere must not
    # fire).
    DECL_RE = re.compile(
        r"(?P<const>\bconst\s+)?"
        r"(?P<type>[A-Za-z_][\w:]*)(?:\s*<[^;(){]*>)?\s*&?\s+"
        r"(?P<name>\w+)\s*[=;,){:]")
    MOVE_RE = re.compile(r"\bstd\s*::\s*move\s*\(\s*([A-Za-z_]\w*)\s*\)")

    def check_bad_move(self, path: pathlib.Path, lines: list[str]) -> None:
        if not path.is_relative_to(SRC_ROOT):
            return
        stripped = [strip_comments_and_strings(raw) for raw in lines]
        classes: dict[str, set[str]] = {}
        for line in stripped:
            for m in self.DECL_RE.finditer(line):
                if m.group("const"):
                    cls = "const"
                elif m.group("type") in self.TRIVIAL_TYPES:
                    cls = "trivial"
                else:
                    cls = "other"
                classes.setdefault(m.group("name"), set()).add(cls)
        for i, line in enumerate(stripped, start=1):
            for m in self.MOVE_RE.finditer(line):
                name = m.group(1)
                if classes.get(name) == {"const"}:
                    self.report(path, i, "badmove",
                                f"std::move({name}) where `{name}` is "
                                "declared const in this file; a const "
                                "object cannot be moved from, so this "
                                "silently copies — drop the move or drop "
                                "the const")
                elif classes.get(name) == {"trivial"}:
                    self.report(path, i, "badmove",
                                f"std::move({name}) where `{name}` is a "
                                "trivially-copyable scalar in this file; "
                                "the move is a copy either way — drop the "
                                "std::move")

    # ---- hotalloc -------------------------------------------------------

    HOT_ALLOC_DIRS = ("core", "ted")
    HOT_ALLOC_RE = re.compile(
        r"(?<![\w:.])new\s+[A-Za-z_(:]"        # expression `new T`, not "renew"
        r"|\bmake_unique\s*<"
        r"|\bstd\s*::\s*function\b")

    def check_hot_alloc(self, path: pathlib.Path, lines: list[str]) -> None:
        if path.suffix != ".h" or not any(
                path.is_relative_to(SRC_ROOT / d)
                for d in self.HOT_ALLOC_DIRS):
            return
        for i, raw in enumerate(lines, start=1):
            line = strip_comments_and_strings(raw)
            m = self.HOT_ALLOC_RE.search(line)
            if m:
                self.report(path, i, "hotalloc",
                            f"'{m.group(0).strip()}' in an inner kernel "
                            "header (src/core/, src/ted/); these run once "
                            "per candidate pair — preallocate in the "
                            "caller, use direct calls, and keep heap "
                            "traffic out (astcheck --checks=perf is the "
                            "AST-grade version of this rule)")

    # ---- nodiscard ------------------------------------------------------

    def check_status_nodiscard(self) -> None:
        status_h = SRC_ROOT / "util" / "status.h"
        text = status_h.read_text(encoding="utf-8")
        for cls in ("Status", "StatusOr"):
            if not re.search(
                    rf"class\s+\[\[nodiscard\]\]\s+{cls}\b", text):
                self.report(status_h, 1, "nodiscard",
                            f"class {cls} must be declared "
                            f"'class [[nodiscard]] {cls}' so discarded "
                            "results are compiler errors")

    def collect_status_returning(self, header_lines: dict[pathlib.Path,
                                                          list[str]]
                                 ) -> set[str]:
        names: set[str] = set()
        decl = re.compile(
            r"^\s*(?:virtual\s+|static\s+)*"
            r"(?:Status|StatusOr<[^;=]*>)\s+"
            r"(\w+)\s*\(")
        for lines in header_lines.values():
            for raw in lines:
                m = decl.match(strip_comments_and_strings(raw))
                if m:
                    names.add(m.group(1))
        return names

    def check_discarded_status(self, path: pathlib.Path, lines: list[str],
                               names: set[str]) -> None:
        if not names:
            return
        call = re.compile(
            r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*"
            r"(" + "|".join(sorted(names)) + r")\s*\(.*\)\s*;\s*$")
        prev_significant = ""
        for i, raw in enumerate(lines, start=1):
            line = strip_comments_and_strings(raw)
            stripped = line.strip()
            if not stripped:
                continue
            # A call is only "discarded" when it starts its own statement;
            # continuation lines (e.g. the RHS of a wrapped assignment)
            # belong to whatever consumed them on the previous line.
            starts_statement = (prev_significant == ""
                                or prev_significant.endswith((";", "{", "}"))
                                or prev_significant.startswith("#"))
            prev_significant = stripped
            if not starts_statement:
                continue
            if any(stripped.startswith(p) for p in CONSUMING_PREFIXES):
                continue
            if "=" in line:
                continue
            m = call.match(line)
            if m:
                self.report(path, i, "discarded",
                            f"result of Status-returning '{m.group(1)}()' is "
                            "discarded; assign it, return it, or wrap in "
                            "TREESIM_CHECK_OK")

    # ---- driver ---------------------------------------------------------

    def run(self) -> int:
        headers: dict[pathlib.Path, list[str]] = {}
        sources: dict[pathlib.Path, list[str]] = {}
        roots = [SRC_ROOT]
        fuzz_root = REPO_ROOT / "fuzz"
        if fuzz_root.is_dir():
            roots.append(fuzz_root)
        for root in roots:
            for path in sorted(root.rglob("*")):
                if path.suffix == ".h":
                    headers[path] = path.read_text(
                        encoding="utf-8").splitlines()
                elif path.suffix == ".cc":
                    sources[path] = path.read_text(
                        encoding="utf-8").splitlines()

        for path, lines in headers.items():
            if path.is_relative_to(SRC_ROOT):
                self.check_include_guard(path, lines)
            self.check_header_using(path, lines)
            self.check_assert(path, lines)
            self.check_hot_alloc(path, lines)
        for path, lines in sources.items():
            self.check_assert(path, lines)
            self.check_sigsafe(path, lines)
        for path, lines in {**headers, **sources}.items():
            self.check_raw_log(path, lines)
            self.check_query_tail(path, lines)
            self.check_raw_wait(path, lines)
            self.check_bad_move(path, lines)

        self.check_status_nodiscard()
        names = self.collect_status_returning(headers)
        for path, lines in {**headers, **sources}.items():
            self.check_discarded_status(path, lines, names)

        # rawsync additionally covers tools/ and bench/ (the other rules
        # keep their src/ + fuzz/ scope).
        sync_files = dict(headers)
        sync_files.update(sources)
        for root_name in ("tools", "bench"):
            root = REPO_ROOT / root_name
            if not root.is_dir():
                continue
            for path in sorted(root.rglob("*")):
                if path.suffix in (".h", ".cc"):
                    sync_files[path] = path.read_text(
                        encoding="utf-8").splitlines()
        for path, lines in sync_files.items():
            self.check_raw_sync(path, lines)
            self.check_chrono(path, lines)

        if self.findings:
            for finding in self.findings:
                print(finding)
            print(f"lint_treesim.py: {len(self.findings)} finding(s)",
                  file=sys.stderr)
            return 1
        checked = len(headers) + len(sources)
        print(f"lint_treesim.py: clean ({checked} files)")
        return 0


def self_test() -> int:
    """Runs every rule against a synthetic tree of known-bad/known-good
    files and checks the findings one-to-one (by rule and count)."""
    import tempfile

    global REPO_ROOT, SRC_ROOT
    orig_roots = (REPO_ROOT, SRC_ROOT)

    files = {
        # Valid status.h so nodiscard/guard stay quiet on the scaffold.
        "src/util/status.h": (
            "#ifndef TREESIM_UTIL_STATUS_H_\n"
            "#define TREESIM_UTIL_STATUS_H_\n"
            "class [[nodiscard]] Status {};\n"
            "template <typename T> class [[nodiscard]] StatusOr {};\n"
            "#endif  // TREESIM_UTIL_STATUS_H_\n"),
        # rawwait: sleep_for, sleep(), usleep(), .detach() — plus one
        # rawsync for the std::thread parameter type.
        "src/bad_wait.cc": (
            "void Slow() {\n"
            "  std::this_thread::sleep_for(interval);\n"
            "  sleep(1);\n"
            "  usleep(100);\n"
            "}\n"
            "void Leak(std::thread& worker) {\n"
            "  worker.detach();\n"
            "}\n"),
        # Known-good: sanctioned wait; sleeps only in comments/strings.
        "src/good_wait.cc": (
            "void Wait() {\n"
            "  // usleep(100) would busy-wait here; CondVar blocks.\n"
            "  const char* msg = \"never call sleep( in src/\";\n"
            "  (void)msg;\n"
            "  cv.Wait(&mu);\n"
            "}\n"),
        "src/search/bad_log.cc": (
            "void Report() {\n"
            "  printf(\"done\\n\");\n"
            "}\n"),
        # querytail: a hand-copied query tail; the same names are fine in
        # a comment and inside the QueryScope files themselves.
        "src/search/bad_tail.cc": (
            "void Finish(const FlightRecord& rec) {\n"
            "  // no ScopedQueryContext here, QueryScope owns it\n"
            "  FlightRecorder::Global().Record(rec);\n"
            "}\n"),
        "src/search/query_scope.cc": (
            "QueryScope::~QueryScope() {\n"
            "  FlightRecorder::Global().Record(rec);\n"
            "  StructuredLog::Global().Write(log);\n"
            "}\n"),
        "src/bad_using.h": (
            "#ifndef TREESIM_BAD_USING_H_\n"
            "#define TREESIM_BAD_USING_H_\n"
            "using namespace std;\n"
            "#endif  // TREESIM_BAD_USING_H_\n"),
        # hotalloc: allocation and type erasure planted in an inner kernel
        # header — new-expression, make_unique, std::function.
        "src/core/bad_hot.h": (
            "#ifndef TREESIM_CORE_BAD_HOT_H_\n"
            "#define TREESIM_CORE_BAD_HOT_H_\n"
            "inline int* Make() { return new int(7); }\n"
            "inline auto MakeBox() { return std::make_unique<int>(7); }\n"
            "inline void Apply(const std::function<int(int)>& f);\n"
            "#endif  // TREESIM_CORE_BAD_HOT_H_\n"),
        # Known-good: the banned names only in comments, and the same
        # constructs are fine outside the kernel directories.
        "src/ted/good_hot.h": (
            "#ifndef TREESIM_TED_GOOD_HOT_H_\n"
            "#define TREESIM_TED_GOOD_HOT_H_\n"
            "// a new tree is built via make_unique in the caller\n"
            "inline int Renew(int x) { return x; }\n"
            "#endif  // TREESIM_TED_GOOD_HOT_H_\n"),
        "src/search/ok_hot.h": (
            "#ifndef TREESIM_SEARCH_OK_HOT_H_\n"
            "#define TREESIM_SEARCH_OK_HOT_H_\n"
            "inline int* MakeOutside() { return new int(7); }\n"
            "#endif  // TREESIM_SEARCH_OK_HOT_H_\n"),
        # badmove: a const object moved (silent copy) and a scalar moved
        # (pointless); the non-const vector move at the end must stay
        # clean, as must the commented-out move.
        # sigsafe: stdio, malloc, and a lock planted in the crash-handler
        # TU — the same names in comments and string literals must not
        # fire, and write() stays fine.
        "src/util/triage.cc": (
            "void WriteDump(int fd) {\n"
            "  // fprintf() or malloc() here would deadlock mid-crash.\n"
            "  const char* note = \"printf( is banned here\";\n"
            "  write(fd, note, 3);\n"
            "  std::fprintf(stderr, \"crash\\n\");\n"
            "  char* scratch = static_cast<char*>(malloc(64));\n"
            "  MutexLock hold(mu);\n"
            "}\n"),
        "src/bad_move.cc": (
            "void Publish(std::vector<int> rows) {\n"
            "  const std::string tag = MakeTag();\n"
            "  Sink(std::move(tag));\n"
            "  int count = 3;\n"
            "  Accept(std::move(count));\n"
            "  // Sink(std::move(tag)) again would copy too.\n"
            "  Sink(std::move(rows));\n"
            "}\n"),
    }
    expected = {"rawwait": 4, "rawsync": 1, "rawlog": 1, "querytail": 1,
                "using": 1, "hotalloc": 3, "badmove": 2, "sigsafe": 3}

    try:
        with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
            root = pathlib.Path(tmp)
            REPO_ROOT = root
            SRC_ROOT = root / "src"
            for rel, content in files.items():
                path = root / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(content, encoding="utf-8")
            linter = Linter()
            code = linter.run()
    finally:
        REPO_ROOT, SRC_ROOT = orig_roots

    got: dict[str, int] = {}
    for finding in linter.findings:
        m = re.search(r"\[(\w+)\]", finding)
        if m:
            got[m.group(1)] = got.get(m.group(1), 0) + 1
    failures = []
    if code != 1:
        failures.append(f"expected exit 1 on the bad tree, got {code}")
    if got != expected:
        failures.append(f"expected findings {expected}, got {got}")
    if any("good_wait.cc" in f for f in linter.findings):
        failures.append("known-good file good_wait.cc produced findings")
    if failures:
        for msg in failures:
            print(f"lint_treesim.py --self-test: FAIL: {msg}")
        return 1
    print(f"lint_treesim.py --self-test: PASS "
          f"({sum(expected.values())} expected findings fired)")
    return 0


if __name__ == "__main__":
    if "--self-test" in sys.argv[1:]:
        sys.exit(self_test())
    sys.exit(Linter().run())
