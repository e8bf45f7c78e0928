#!/usr/bin/env python3
"""Engine-specific concurrency lint for DCDatalog.

Enforces the rules docs/INTERNALS.md §7 lists that clang's thread-safety
analysis cannot express:

  memory-order      Every std::atomic load/store/RMW in src/concurrent/,
                    src/runtime/, src/core/ and src/server/ must name an
                    explicit std::memory_order — no implicit seq_cst on hot
                    paths — and no operator sugar (++, +=, =) on atomics
                    there.
  hot-path-mutex    No mutexes, condition variables or blocking sleeps in
                    the evaluation hot paths (rings, barrier, termination,
                    distributor, gather/merge, pipelines, strategy loops).
  chaos-allowlist   Chaos-injection macros may only be referenced from the
                    audited coordination points; a stray DCD_CHAOS_POINT in
                    random code would perturb schedules nobody fuzzes.
  hot-loop-alloc    No raw heap allocation (new/malloc/make_unique/...)
                    inside the per-iteration hot functions.
  tsa-suppression   DCD_NO_THREAD_SAFETY_ANALYSIS needs a justification
                    comment on the same or previous line.
  registry          (whole-repo runs) Every file the scopes below name must
                    exist, and every HOT_LOOP_FUNCTIONS entry must have a
                    body in its file: a stale entry would otherwise drop
                    its file or function from a rule without notice.
  hot-virtual       No unannotated calls to virtual-declared methods in the
                    hot-path files: virtual dispatch defeats inlining and
                    adds an indirect branch per tuple. The engine's step
                    dispatch is switch/function-pointer based by design;
                    a justified exception carries a dcd-lint allow or a
                    DCD_COLD_CALL (src/common/hot_path.h) annotation.

Layered tools (run when available, skipped with a notice otherwise —
the container may carry only GCC):

  clang-tidy        Repo-root .clang-tidy baseline over compile_commands.json.
  clang-query       AST matchers in tools/lint/queries/*.cql (e.g. atomic
                    member calls whose memory_order argument is defaulted).

Suppressions: a finding on line N is suppressed when line N or N-1 carries
    // dcd-lint: allow(<rule>): <justification of at least 15 chars>
A suppression without a real justification is itself an error.

Exit codes: 0 clean, 2 findings, 3 usage/internal error.

Usage:
  tools/lint/dcd_lint.py [--repo-root R] [--build-dir B]
                         [--rules r1,r2] [--no-clang-tools] [files...]
  tools/lint/dcd_lint.py --selftest     # seed one violation per rule and
                                        # assert every rule catches it
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))

# --- Rule scopes -----------------------------------------------------------

MEMORY_ORDER_DIRS = ("src/concurrent", "src/runtime", "src/core", "src/server")

# Files forming the evaluation hot paths: everything that runs per tuple,
# per block or per local iteration. Locks and blocking calls here would
# reintroduce exactly the coordination cost the paper's design removes.
HOT_PATH_FILES = {
    "src/concurrent/spsc_queue.h",
    "src/concurrent/barrier.h",
    "src/concurrent/termination.h",
    "src/runtime/message.h",
    "src/runtime/distributor.h",
    "src/runtime/distributor.cc",
    "src/runtime/recursive_table.h",
    "src/runtime/recursive_table.cc",
    "src/runtime/batch_pipeline.h",
    "src/runtime/batch_pipeline.cc",
    "src/runtime/expr_eval.h",
    "src/runtime/expr_eval.cc",
    "src/runtime/base_index_set.h",
    "src/runtime/base_index_set.cc",
    "src/storage/flat_set.h",
    "src/storage/flat_map.h",
    "src/storage/hash_index.h",
    "src/storage/updates.h",
    "src/storage/updates.cc",
    "src/core/scc_executor.h",
    "src/core/scc_executor.cc",
    "src/core/strategy.h",
    "src/core/dws_controller.h",
    "src/core/dws_controller.cc",
    "src/common/trace.h",
    "src/common/histogram.h",
}

# The audited coordination points that may reference chaos macros
# (DCD_CHAOS_POINT / DCD_CHAOS_FAIL / DCD_INJECT_BUG). The fuzz harness
# (src/testing) installs schedules; everything else must stay chaos-free.
CHAOS_ALLOWLIST_PREFIXES = ("src/testing/",)
CHAOS_ALLOWLIST_FILES = {
    "src/common/chaos.h",
    "src/common/chaos.cc",
    "src/concurrent/spsc_queue.h",
    "src/concurrent/termination.h",
    "src/concurrent/worker_pool.cc",
    "src/core/delete.cc",
    "src/core/scc_executor.cc",
    "src/runtime/distributor.h",
    "src/runtime/distributor.cc",
}

# file (relative) -> function names whose bodies run per iteration / per
# tuple. Raw allocation inside them is a hot-loop bug; containers sized at
# setup time (vector ctors) are fine and not matched.
# PreparePipeline is deliberately absent: it runs once per rule, not per
# tuple.
HOT_LOOP_FUNCTIONS = {
    "src/concurrent/spsc_queue.h": ["TryPush", "TryPop"],
    "src/runtime/distributor.cc": [
        "Route", "EmitBatch", "EmitResolved", "Flush", "SendBlock",
    ],
    "src/runtime/recursive_table.cc": [
        "MergeWire", "MergeBatch", "MergeNone", "MergeMinMax", "MergeCount",
        "MergeSum", "PushDelta",
    ],
    # Begin is deliberately absent: it runs once per rule and owns the
    # growth-only level allocation; everything below runs per batch/lane.
    "src/runtime/batch_pipeline.cc": [
        "Push", "RunBatch", "FlushLevel", "RunSteps", "RunExpanding",
        "RunFilter", "RunBind", "RunAntiJoin", "EmitLevel",
    ],
    # CopyLane and the step helpers the runner inlines per matched tuple.
    "src/runtime/batch_pipeline.h": [
        "CopyLane", "ApplyChecksAndBindStrided", "StepChecksMatch",
        "ApplyDrivingScanStrided",
    ],
    # RunUpdateRules drives every post-watermark EDB row through a rule
    # pipeline per incremental batch; PreparePipeline inside it is
    # once-per-rule and allocation there does not match textually.
    "src/core/scc_executor.cc": [
        "GatherAll", "PushWithBackpressure", "LocalIteration", "InactiveWait",
        "Fixpoint", "RunUpdateRules",
    ],
    # Each strategy's per-turn decision and after-iteration hook. Begin is
    # deliberately absent: it runs once per worker and builds DWS's model.
    "src/core/strategy.h": [
        "Next", "AfterIteration", "Barrier", "UpdateModel",
    ],
    # The trace ring's Append and the histogram's Add run inside every one
    # of the engine hot loops above; they must stay allocation-free.
    "src/common/trace.h": ["Append"],
    "src/common/histogram.h": ["Add", "BucketOf"],
    # The flat merge structures run once per wire tuple. Rehash only
    # resizes its slot vector (not matched by the textual alloc rule);
    # per-probe allocation would be a real bug.
    "src/storage/flat_set.h": ["Find", "Insert", "Prefetch"],
    "src/storage/flat_map.h": ["Find", "FindOrInsert", "Prefetch"],
}

ALL_RULES = (
    "memory-order",
    "hot-path-mutex",
    "chaos-allowlist",
    "hot-loop-alloc",
    "tsa-suppression",
    "hot-virtual",
)


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --- Source preprocessing --------------------------------------------------

def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line
    structure so line numbers keep meaning. Keeps the comment text handy is
    NOT needed here — suppression scanning runs on the raw text."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
            out.append(" " if c != "\n" else "\n")
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
            out.append(" " if c != "\n" else "\n")
        i += 1
    return "".join(out)


ALLOW_RE = re.compile(r"dcd-lint:\s*allow\(([\w-]+)\)\s*:?\s*(.*)")


def suppression_for(raw_lines, lineno, rule):
    """Returns (allowed, error_message). Checks line `lineno` (1-based) and
    the line above for a dcd-lint allow of `rule`."""
    for ln in (lineno, lineno - 1):
        if ln < 1 or ln > len(raw_lines):
            continue
        m = ALLOW_RE.search(raw_lines[ln - 1])
        if m is None:
            continue
        if m.group(1) != rule:
            continue
        justification = m.group(2).strip()
        if len(justification) < 15:
            return False, (
                "suppression of '%s' lacks a justification (need an inline "
                "reason of at least 15 characters after the colon)" % rule)
        return True, None
    return False, None


class SourceFile:
    def __init__(self, path, rel):
        self.path = path
        self.rel = rel
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            self.raw = f.read()
        self.raw_lines = self.raw.split("\n")
        self.code = strip_comments_and_strings(self.raw)
        self.code_lines = self.code.split("\n")

    def report(self, findings, rule, lineno, message):
        allowed, error = suppression_for(self.raw_lines, lineno, rule)
        if error is not None:
            findings.append(Finding(rule, self.rel, lineno, error))
        elif not allowed:
            findings.append(Finding(rule, self.rel, lineno, message))


# --- Rule: memory-order ----------------------------------------------------

ATOMIC_CALL_RE = re.compile(
    r"[.\->]\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or"
    r"|fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(")

ATOMIC_DECL_RE = re.compile(r"std\s*::\s*atomic\s*<[^;{]*>\s+(\w+)")


def extract_call_args(code, open_paren_idx):
    """Returns the text between the call's balanced parentheses."""
    depth = 0
    i = open_paren_idx
    start = open_paren_idx + 1
    while i < len(code):
        c = code[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return code[start:i]
        i += 1
    return code[start:]


def check_memory_order(sf, findings):
    # Part 1: named atomic operations must pass an explicit memory_order.
    for m in ATOMIC_CALL_RE.finditer(sf.code):
        args = extract_call_args(sf.code, m.end() - 1)
        if "memory_order" in args:
            continue
        lineno = sf.code.count("\n", 0, m.start()) + 1
        sf.report(
            findings, "memory-order", lineno,
            f"atomic {m.group(1)}() without an explicit std::memory_order "
            "(implicit seq_cst is banned on engine hot paths; say what you "
            "mean, and why, in a comment where non-obvious)")

    # Part 2: operator sugar on declared atomics (++x, x += n, x = n) is an
    # implicit seq_cst RMW/store; require the named member functions.
    atomic_names = set(ATOMIC_DECL_RE.findall(sf.code))
    if not atomic_names:
        return
    names = "|".join(re.escape(n) for n in sorted(atomic_names))
    op_re = re.compile(
        r"(?:\+\+|--)\s*(?:%s)\b|(?<![\w.>])(?:%s)\s*(?:\+\+|--|(?:[+\-&|^])?="
        r"(?!=))" % (names, names))
    for i, line in enumerate(sf.code_lines, start=1):
        m = op_re.search(line)
        if m is None:
            continue
        # Skip the declaration itself (`std::atomic<T> x = ...` / `{...}`)
        # and comparison-free false positives from declarations of same-name
        # non-atomic locals (`uint64_t x = ...`): any line that declares a
        # variable before the match position is not an atomic access.
        prefix = line[:m.start()]
        if "std::atomic" in line:
            continue
        if re.search(r"\b(?:auto|bool|u?int\d+_t|size_t|uint64_t|int|long"
                     r"|double|float|char)\s+[&*]?\s*$", prefix):
            continue
        sf.report(
            findings, "memory-order", i,
            "operator on std::atomic is an implicit seq_cst access; use "
            ".load/.store/.fetch_* with an explicit std::memory_order")


# --- Rule: hot-path-mutex --------------------------------------------------

HOT_PATH_BANNED = [
    (re.compile(r"\bstd\s*::\s*(?:recursive_|shared_|timed_)?mutex\b"),
     "std::mutex family"),
    (re.compile(r"\b(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
     "lock RAII wrapper"),
    (re.compile(r"\bcondition_variable\b"), "condition variable"),
    (re.compile(r"\bMutexLock\b|\bMutex\b"), "dcdatalog::Mutex"),
    (re.compile(r"\bsleep_for\b|\bsleep_until\b"), "blocking sleep"),
]


def check_hot_path_mutex(sf, findings):
    for i, line in enumerate(sf.code_lines, start=1):
        for pattern, what in HOT_PATH_BANNED:
            if pattern.search(line):
                sf.report(
                    findings, "hot-path-mutex", i,
                    f"{what} on an evaluation hot path — the strategy "
                    "loops, rings and merge paths must stay lock-free "
                    "(move the work off the hot path or justify inline)")
                break


# --- Rule: chaos-allowlist -------------------------------------------------

CHAOS_TOKEN_RE = re.compile(
    r"\b(DCD_CHAOS_POINT|DCD_CHAOS_FAIL|DCD_INJECT_BUG)\b")


def check_chaos_allowlist(sf, findings):
    if sf.rel in CHAOS_ALLOWLIST_FILES:
        return
    if any(sf.rel.startswith(p) for p in CHAOS_ALLOWLIST_PREFIXES):
        return
    for i, line in enumerate(sf.code_lines, start=1):
        m = CHAOS_TOKEN_RE.search(line)
        if m is not None:
            sf.report(
                findings, "chaos-allowlist", i,
                f"{m.group(1)} referenced outside the audited chaos "
                "allowlist (tools/lint/dcd_lint.py CHAOS_ALLOWLIST_*); new "
                "injection points must be added to the allowlist and to "
                "the fuzz harness's site enum together")


# --- Rule: hot-loop-alloc --------------------------------------------------

ALLOC_RE = re.compile(
    r"(?<![\w.])new\b(?!\s*\()|(?<![\w.])new\s*\(|\bmalloc\s*\(|\bcalloc\s*\("
    r"|\brealloc\s*\(|\bmake_unique\b|\bmake_shared\b|\bstrdup\s*\(")


def find_function_body(code, name):
    """Yields (start_offset, end_offset) of brace-balanced bodies of
    functions named `name` (heuristic: name followed by '(' at a definition
    whose parameter list is followed by '{', allowing qualifiers)."""
    for m in re.finditer(r"\b%s\s*\(" % re.escape(name), code):
        # Balance the parameter list.
        depth = 0
        i = m.end() - 1
        while i < len(code):
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        # Skip qualifiers (const, noexcept, trailing return) up to '{' or a
        # character proving this was a call/declaration, not a definition.
        j = i + 1
        while j < len(code) and code[j] not in "{;,)=":
            j += 1
        if j >= len(code) or code[j] != "{":
            continue
        depth = 0
        k = j
        while k < len(code):
            if code[k] == "{":
                depth += 1
            elif code[k] == "}":
                depth -= 1
                if depth == 0:
                    yield j, k
                    break
            k += 1


def check_hot_loop_alloc(sf, findings, functions):
    for fname in functions:
        for start, end in find_function_body(sf.code, fname):
            body = sf.code[start:end]
            for m in ALLOC_RE.finditer(body):
                lineno = sf.code.count("\n", 0, start + m.start()) + 1
                sf.report(
                    findings, "hot-loop-alloc", lineno,
                    f"raw heap allocation inside hot function {fname}() — "
                    "per-iteration paths must reuse preallocated buffers "
                    "(scratch vectors, staging blocks)")


# --- Rule: hot-virtual -----------------------------------------------------

# Method names declared `virtual` anywhere, or defined with override/final
# (covers split declaration/definition). The name set is gathered over the
# whole linted file set, then every member call to one of those names in a
# hot-path file is flagged — same over-approximation by name the deepcheck
# analyzer uses, sound for a guardrail (the engine currently declares no
# virtuals at all; this rule keeps it that way on the hot paths).
VIRTUAL_DECL_NAME_RE = re.compile(r"\bvirtual\b[^;{=()]*?\b(\w+)\s*\(")
OVERRIDE_DECL_NAME_RE = re.compile(
    r"\b(\w+)\s*\([^;{}()]*\)\s*(?:const\s*)?(?:noexcept\s*)?"
    r"(?:override|final)\b")


def gather_virtual_names(sources):
    names = set()
    for sf in sources:
        names.update(VIRTUAL_DECL_NAME_RE.findall(sf.code))
        names.update(OVERRIDE_DECL_NAME_RE.findall(sf.code))
    names.discard("operator")
    return names


def check_hot_virtual(sf, findings, virtual_names):
    if not virtual_names:
        return
    call_re = re.compile(
        r"(?:\.|->)\s*(%s)\s*\(" % "|".join(
            re.escape(n) for n in sorted(virtual_names)))
    for i, line in enumerate(sf.code_lines, start=1):
        m = call_re.search(line)
        if m is None:
            continue
        # The deepcheck annotation vocabulary also counts as justification:
        # DCD_COLD_CALL on the call's line or the line above.
        context = sf.raw_lines[i - 1]
        if i >= 2:
            context += sf.raw_lines[i - 2]
        if "DCD_COLD_CALL(" in context:
            continue
        sf.report(
            findings, "hot-virtual", i,
            f"call to virtual-declared method {m.group(1)}() on a hot path "
            "— virtual dispatch costs an indirect branch per tuple and "
            "defeats inlining; use the switch/function-pointer step "
            "dispatch, or justify with DCD_COLD_CALL / a dcd-lint allow")


# --- Rule: tsa-suppression -------------------------------------------------

def check_tsa_suppression(sf, findings):
    for i, line in enumerate(sf.code_lines, start=1):
        if "DCD_NO_THREAD_SAFETY_ANALYSIS" not in line:
            continue
        if sf.rel.endswith("thread_annotations.h"):
            continue  # The definition site.
        if line.lstrip().startswith("#"):
            continue  # Macro definition, not a use.
        context = ""
        if i >= 2:
            context += sf.raw_lines[i - 2]
        context += sf.raw_lines[i - 1]
        comment = re.search(r"//\s*(.{15,})", context)
        if comment is None:
            sf.report(
                findings, "tsa-suppression", i,
                "DCD_NO_THREAD_SAFETY_ANALYSIS without a justification "
                "comment on the same or previous line")


# --- Registry check --------------------------------------------------------

def check_registries(repo_root, hot_path_files=None, chaos_files=None,
                     hot_loop_functions=None):
    """Reports registry entries that name a missing file or function."""
    if hot_path_files is None:
        hot_path_files = HOT_PATH_FILES
    if chaos_files is None:
        chaos_files = CHAOS_ALLOWLIST_FILES
    if hot_loop_functions is None:
        hot_loop_functions = HOT_LOOP_FUNCTIONS
    findings = []
    for registry, files in (("HOT_PATH_FILES", hot_path_files),
                            ("CHAOS_ALLOWLIST_FILES", chaos_files),
                            ("HOT_LOOP_FUNCTIONS", hot_loop_functions)):
        for rel in sorted(files):
            if not os.path.exists(os.path.join(repo_root, rel)):
                findings.append(Finding(
                    "registry", rel, 0,
                    f"{registry} names a file that does not exist (moved? "
                    "update tools/lint/dcd_lint.py)"))
    for rel, functions in sorted(hot_loop_functions.items()):
        path = os.path.join(repo_root, rel)
        if not os.path.exists(path):
            continue
        code = SourceFile(path, rel).code
        for fname in functions:
            if next(find_function_body(code, fname), None) is None:
                findings.append(Finding(
                    "registry", rel, 0,
                    f"HOT_LOOP_FUNCTIONS names {fname}(), which this file "
                    "does not define (renamed or moved?)"))
    return findings


# --- File discovery --------------------------------------------------------

def discover_files(repo_root, build_dir):
    """Returns repo-relative paths of all first-party sources, preferring
    the compile_commands.json TU list (plus a header glob) when present."""
    rels = set()
    cc_path = os.path.join(build_dir or "", "compile_commands.json")
    if build_dir and os.path.exists(cc_path):
        with open(cc_path, "r", encoding="utf-8") as f:
            for entry in json.load(f):
                path = os.path.normpath(
                    os.path.join(entry["directory"], entry["file"]))
                rel = os.path.relpath(path, repo_root)
                if not rel.startswith(".."):
                    rels.add(rel)
    for base in ("src",):
        for dirpath, _, filenames in os.walk(os.path.join(repo_root, base)):
            for fn in filenames:
                if fn.endswith((".h", ".cc", ".cpp", ".hpp")):
                    rel = os.path.relpath(os.path.join(dirpath, fn), repo_root)
                    rels.add(rel)
    return sorted(r.replace(os.sep, "/") for r in rels
                  if r.replace(os.sep, "/").startswith("src/"))


# --- Python-rule driver ----------------------------------------------------

def run_python_rules(repo_root, rel_files, rules, explicit_files):
    findings = []
    sources = []
    for rel in rel_files:
        path = os.path.join(repo_root, rel)
        if os.path.exists(path):
            sources.append(SourceFile(path, rel))
    virtual_names = (gather_virtual_names(sources)
                     if "hot-virtual" in rules else set())
    for sf in sources:
        rel = sf.rel
        in_mem_scope = rel.startswith(MEMORY_ORDER_DIRS) or explicit_files
        in_hot_scope = rel in HOT_PATH_FILES or explicit_files
        if "memory-order" in rules and in_mem_scope:
            check_memory_order(sf, findings)
        if "hot-path-mutex" in rules and in_hot_scope:
            check_hot_path_mutex(sf, findings)
        if "chaos-allowlist" in rules and (rel.startswith("src/")
                                           or explicit_files):
            check_chaos_allowlist(sf, findings)
        if "hot-loop-alloc" in rules:
            functions = HOT_LOOP_FUNCTIONS.get(rel)
            if explicit_files and functions is None:
                # For explicitly passed files (self-test fixtures), scan
                # every function the file defines.
                functions = sorted(set(
                    re.findall(r"\b(\w+)\s*\([^;]*?\)\s*(?:const\s*)?{",
                               sf.code)))
            if functions:
                check_hot_loop_alloc(sf, findings, functions)
        if "tsa-suppression" in rules:
            check_tsa_suppression(sf, findings)
        if "hot-virtual" in rules and in_hot_scope:
            check_hot_virtual(sf, findings, virtual_names)
    return findings


# --- clang-tool layers -----------------------------------------------------

def find_tool(*candidates):
    for name in candidates:
        path = shutil.which(name)
        if path:
            return path
    # Debian/Ubuntu versioned names.
    for name in candidates:
        for version in range(20, 11, -1):
            path = shutil.which(f"{name}-{version}")
            if path:
                return path
    return None


def run_clang_tidy(repo_root, build_dir, rel_files):
    tool = find_tool("clang-tidy")
    if tool is None:
        print("lint: clang-tidy not found; skipping clang-tidy layer "
              "(runs in CI)")
        return []
    if not build_dir or not os.path.exists(
            os.path.join(build_dir, "compile_commands.json")):
        print("lint: no compile_commands.json; skipping clang-tidy layer "
              "(configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)")
        return []
    tus = [os.path.join(repo_root, r) for r in rel_files
           if r.endswith(".cc") and r.startswith("src/")]
    proc = subprocess.run(
        [tool, "-p", build_dir, "--quiet"] + tus,
        capture_output=True, text=True)
    findings = []
    warnings = 0
    for line in proc.stdout.splitlines():
        # .clang-tidy promotes concurrency-* to errors; only those (and
        # hard errors) fail the lint. Plain warnings print as advisory.
        if ": error:" in line:
            findings.append(Finding("clang-tidy", line.split(":")[0], 0,
                                    line.strip()))
            print(line)
        elif ": warning:" in line:
            warnings += 1
            print(line)
    if warnings:
        print(f"lint: {warnings} advisory clang-tidy warning(s) (only "
              "WarningsAsErrors categories fail the build)")
    if proc.returncode != 0 and not findings:
        print(proc.stderr, file=sys.stderr)
        findings.append(Finding("clang-tidy", "<driver>", 0,
                                "clang-tidy failed to run"))
    return findings


def run_clang_query(repo_root, build_dir, rel_files):
    tool = find_tool("clang-query")
    if tool is None:
        print("lint: clang-query not found; skipping AST-matcher layer "
              "(runs in CI)")
        return []
    if not build_dir or not os.path.exists(
            os.path.join(build_dir, "compile_commands.json")):
        print("lint: no compile_commands.json; skipping AST-matcher layer")
        return []
    queries_dir = os.path.join(repo_root, "tools", "lint", "queries")
    query_files = sorted(
        os.path.join(queries_dir, f) for f in os.listdir(queries_dir)
        if f.endswith(".cql"))
    tus = [os.path.join(repo_root, r) for r in rel_files
           if r.endswith(".cc") and r.startswith(
               ("src/concurrent", "src/runtime", "src/core"))]
    findings = []
    for qf in query_files:
        proc = subprocess.run(
            [tool, "-p", build_dir, "-f", qf] + tus,
            capture_output=True, text=True)
        matches = [l for l in proc.stdout.splitlines()
                   if l.strip().startswith(("Match #",))]
        # clang-query reports the root binding location lines right after
        # each match header; surface the whole stdout on any match.
        if matches:
            print(proc.stdout)
            findings.append(Finding(
                "clang-query", os.path.basename(qf), 0,
                f"{len(matches)} AST match(es) for {os.path.basename(qf)}"))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            findings.append(Finding("clang-query", os.path.basename(qf), 0,
                                    "clang-query failed to run"))
    return findings


# --- Self-test -------------------------------------------------------------

SELFTEST_CASES = {
    "memory-order": (
        "#include <atomic>\n"
        "std::atomic<unsigned long> counter{0};\n"
        "void bump() { counter.fetch_add(1); }\n",
        "#include <atomic>\n"
        "std::atomic<unsigned long> counter{0};\n"
        "void bump() { counter.fetch_add(1, std::memory_order_relaxed); }\n"),
    "memory-order-operator": (
        "#include <atomic>\n"
        "std::atomic<unsigned long> counter{0};\n"
        "void bump() { counter += 2; }\n",
        "#include <atomic>\n"
        "std::atomic<unsigned long> counter{0};\n"
        "void bump() { counter.fetch_add(2, std::memory_order_relaxed); }\n"),
    "hot-path-mutex": (
        "#include <mutex>\n"
        "std::mutex mu;\n"
        "void hot() { std::lock_guard<std::mutex> lock(mu); }\n",
        "void hot() { }\n"),
    "chaos-allowlist": (
        "#include \"common/chaos.h\"\n"
        "void sneaky() { DCD_CHAOS_POINT(kGather); }\n",
        "void honest() { }\n"),
    "hot-loop-alloc": (
        "void iterate() { int* p = new int[64]; delete[] p; }\n",
        "void iterate() { int p[64]; (void)p; }\n"),
    "tsa-suppression": (
        "#define DCD_NO_THREAD_SAFETY_ANALYSIS\n"
        "void f() DCD_NO_THREAD_SAFETY_ANALYSIS;\n",
        "#define DCD_NO_THREAD_SAFETY_ANALYSIS\n"
        "// justified: init-order bootstrap, lock not constructed yet here\n"
        "void f() DCD_NO_THREAD_SAFETY_ANALYSIS;\n"),
    "hot-virtual": (
        "struct Step { virtual void Apply() = 0; };\n"
        "void hot(Step* s) { s->Apply(); }\n",
        "struct Step { void Apply(); };\n"
        "void hot(Step* s) { s->Apply(); }\n"),
    "hot-virtual-coldcall": (
        "struct Step { virtual void Apply() = 0; };\n"
        "void hot(Step* s) { s->Apply(); }\n",
        "#include \"common/hot_path.h\"\n"
        "struct Step { virtual void Apply() = 0; };\n"
        "void setup(Step* s) {\n"
        "  DCD_COLD_CALL(\"dispatch bound once per rule at setup time\");\n"
        "  s->Apply();\n"
        "}\n"),
}


def run_selftest():
    """Seeds one violation per rule in a scratch tree and asserts the lint
    exits non-zero on it and zero on the corrected twin."""
    failures = []
    # Case names are "<rule>" or "<rule>-<variant>"; pick the longest rule
    # that prefixes the case name.
    rule_of = lambda case: next(
        r for r in sorted(ALL_RULES, key=len, reverse=True)
        if case == r or case.startswith(r + "-"))
    with tempfile.TemporaryDirectory(prefix="dcd_lint_selftest.") as tmp:
        for case, (bad, good) in SELFTEST_CASES.items():
            rule = rule_of(case)
            bad_path = os.path.join(tmp, f"{case}_bad.cc")
            good_path = os.path.join(tmp, f"{case}_good.cc")
            with open(bad_path, "w") as f:
                f.write(bad)
            with open(good_path, "w") as f:
                f.write(good)
            base = [sys.executable, os.path.abspath(__file__),
                    "--rules", rule, "--no-clang-tools"]
            bad_run = subprocess.run(base + [bad_path], capture_output=True,
                                     text=True)
            good_run = subprocess.run(base + [good_path], capture_output=True,
                                      text=True)
            if bad_run.returncode != 2:
                failures.append(
                    f"{case}: seeded violation NOT caught (exit "
                    f"{bad_run.returncode})\n{bad_run.stdout}")
            if good_run.returncode != 0:
                failures.append(
                    f"{case}: clean twin wrongly flagged (exit "
                    f"{good_run.returncode})\n{good_run.stdout}")
        # Suppression mechanics: an allow with a justification silences the
        # finding; an allow without one stays an error.
        suppressed = (
            "#include <atomic>\n"
            "std::atomic<unsigned long> counter{0};\n"
            "// dcd-lint: allow(memory-order): ctor runs single-threaded "
            "before any worker can observe the object\n"
            "void bump() { counter.fetch_add(1); }\n")
        bare = (
            "#include <atomic>\n"
            "std::atomic<unsigned long> counter{0};\n"
            "// dcd-lint: allow(memory-order):\n"
            "void bump() { counter.fetch_add(1); }\n")
        for name, text, want in (("suppressed", suppressed, 0),
                                 ("bare-suppression", bare, 2)):
            path = os.path.join(tmp, f"{name}.cc")
            with open(path, "w") as f:
                f.write(text)
            run = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--rules",
                 "memory-order", "--no-clang-tools", path],
                capture_output=True, text=True)
            if run.returncode != want:
                failures.append(
                    f"{name}: expected exit {want}, got {run.returncode}\n"
                    f"{run.stdout}")
        # Registry mechanics: an entry naming a missing file or function is
        # an error, not a silently skipped scope.
        os.makedirs(os.path.join(tmp, "src"))
        with open(os.path.join(tmp, "src", "loop.cc"), "w") as f:
            f.write("void Present() { }\n")
        stale = check_registries(tmp, {"src/loop.cc", "src/gone.cc"}, set(),
                                 {"src/loop.cc": ["Present", "Absent"]})
        fresh = check_registries(tmp, {"src/loop.cc"}, set(),
                                 {"src/loop.cc": ["Present"]})
        if len(stale) != 2 or fresh:
            failures.append(
                "registry: expected the missing file and the missing "
                "function only, got\n" +
                "\n".join(str(f) for f in stale + fresh))
    if failures:
        print("lint self-test FAILED:")
        for f in failures:
            print("  " + f.replace("\n", "\n  "))
        return 1
    print(f"lint self-test OK: {len(SELFTEST_CASES)} seeded violations "
          "caught, clean twins pass, suppressions enforced, stale registry "
          "entries reported")
    return 0


# --- Main ------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repo-root", default=REPO_ROOT)
    parser.add_argument("--build-dir", default=None,
                        help="build dir containing compile_commands.json")
    parser.add_argument("--rules", default=",".join(ALL_RULES))
    parser.add_argument("--no-clang-tools", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("files", nargs="*")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(run_selftest())

    repo_root = os.path.abspath(args.repo_root)
    build_dir = args.build_dir
    if build_dir is None:
        candidate = os.path.join(repo_root, "build")
        if os.path.exists(os.path.join(candidate, "compile_commands.json")):
            build_dir = candidate

    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    unknown = [r for r in rules if r not in ALL_RULES]
    if unknown:
        print(f"unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
        sys.exit(3)

    explicit = bool(args.files)
    if explicit:
        rel_files = [os.path.relpath(os.path.abspath(f), repo_root)
                     .replace(os.sep, "/") for f in args.files]
        # Files outside the repo (self-test fixtures) lint under their
        # absolute path.
        rel_files = [f if not f.startswith("..") else os.path.abspath(f2)
                     for f, f2 in zip(rel_files, args.files)]
    else:
        rel_files = discover_files(repo_root, build_dir)

    findings = run_python_rules(repo_root, rel_files, rules, explicit)
    if not explicit:
        findings += check_registries(repo_root)
    if not explicit and not args.no_clang_tools:
        findings += run_clang_tidy(repo_root, build_dir, rel_files)
        findings += run_clang_query(repo_root, build_dir, rel_files)

    for finding in findings:
        print(finding)
    if findings:
        print(f"lint: {len(findings)} finding(s)")
        sys.exit(2)
    scope = f"{len(rel_files)} file(s)"
    print(f"lint: OK ({scope}, rules: {', '.join(rules)})")
    sys.exit(0)


if __name__ == "__main__":
    main()
