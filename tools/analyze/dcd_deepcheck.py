#!/usr/bin/env python3
"""Interprocedural hot-path purity analyzer for DCDatalog.

The paper's scaling results depend on hot loops that never allocate, never
lock and never take an unpredictable indirect call. tools/lint/dcd_lint.py
checks this with file-local regexes; this tool proves it transitively: it
builds the whole-program call graph, starts from a declared set of hot
roots (docs/INTERNALS.md §9) and verifies that no reachable path hits

  alloc       raw heap allocation (operator new / malloc / make_unique...)
  mutex       a lock, condition variable or blocking sleep
  throw       a C++ throw expression
  fn-call     a std::function invocation (type-erased, may allocate,
              always an opaque indirect call)
  virtual     an unannotated virtual dispatch

Escape hatches come from src/common/hot_path.h and mirror the
`dcd-lint: allow(rule): reason` discipline:

  DCD_HOT_ROOT               marks a function as a hot root; the set of
                             annotated functions must equal the registry
                             below (--check-roots).
  DCD_COLD_CALL("reason")    cuts traversal through the call on the same
                             or the next code line and suppresses purity
                             findings there. The justification is
                             mandatory (>= 15 chars) — a bare marker is
                             itself an error.

Every violation prints a reachability trace (hot root -> ... -> offending
function:line) so the finding is actionable without re-running anything.

Frontends:
  * A pure-Python frontend (always on): comment/string stripping, a
    brace-tracking scope parser, receiver-type inference over member and
    local declarations, name-based call resolution. This is what runs in
    every environment, including containers with no clang at all.
  * A libclang precision layer over compile_commands.json (self-skipping
    when the python bindings are absent, like dcd_lint's clang-tidy
    layer): adds AST-exact call edges and primitives (CXX_NEW_EXPR,
    CXX_THROW_EXPR, virtual member calls, std::function::operator()).

Known, documented gaps of the textual frontend: constructor bodies do not
enter the graph via declarations (`IdleScope idle(...)`), calls through
raw function pointers are invisible — which is WHY every sink thunk
installed into a BatchEmitSink/BlockSink must itself be a
declared hot root — and amortized container growth (vector push_back /
rehash) is deliberately out of scope at source level; the binary backstop
(tools/analyze/check_hot_symbols.py) pins that down at symbol granularity.

Exit codes: 0 clean, 2 findings, 3 usage/internal error.

Usage:
  tools/analyze/dcd_deepcheck.py [--repo-root R] [--build-dir B]
      [--src-root DIR] [--roots name1,name2] [--rules r1,r2]
      [--report FILE] [--no-libclang] [files ignored]
  tools/analyze/dcd_deepcheck.py --selftest
  tools/analyze/dcd_deepcheck.py --check-roots
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))

ALL_RULES = ("alloc", "mutex", "throw", "fn-call", "virtual")

# --- Hot-root registry -----------------------------------------------------
# Qualified as Class::Name (namespaces dropped); bare names are free
# functions. Every entry must exist in the parsed tree AND carry a
# DCD_HOT_ROOT annotation in source; every annotated function must be
# listed here (--check-roots enforces both directions).
#
# Function-pointer sinks (BatchEmitSink / BlockSink /
# SelfLoopSink) break the static call graph, so every thunk that can be
# installed into one is itself a root — that is the contract that keeps
# the analysis sound across the indirect-call boundary.
HOT_ROOTS = [
    # Merge path (§6.2.1): one call per gathered wire tuple.
    "RecursiveTable::MergeBatch",
    "RecursiveTable::MergeWire",
    # Flat open-addressing structures under the merge path.
    "FlatTupleSet::Find",
    "FlatTupleSet::Insert",
    "FlatGroupMap::FindOrInsert",
    # Batch rule pipeline (PR 6): per-lane / per-batch work.
    "BatchPipelineRunner::Push",
    "BatchPipelineRunner::RunBatch",
    "BatchPipelineRunner::Finish",
    # Distribute (§5.2.3): per derived tuple.
    "Distributor::EmitBatch",
    "Distributor::Flush",
    # The engine's fixpoint loop and the per-iteration helpers
    # (RunUpdateRules drives the inserts of an incremental update batch).
    "SccExecutor::Fixpoint",
    "SccExecutor::LocalIteration",
    "SccExecutor::GatherAll",
    "SccExecutor::PushWithBackpressure",
    "SccExecutor::InactiveWait",
    "SccExecutor::RunUpdateRules",
    # The strategies the loop calls through its template parameter: the
    # textual frontend cannot type that receiver, so each hook is a root.
    "GlobalStrategy::Next",
    "GlobalStrategy::AfterIteration",
    "SspStrategy::Next",
    "SspStrategy::AfterIteration",
    "DwsStrategy::Next",
    "DwsStrategy::AfterIteration",
    # Emit sinks: function-pointer boundary, see note above.
    "SccExecutor::EmitBatchThunk",
    "SccExecutor::LocalEmitThunk",
    "SccExecutor::DistSinkThunk",
    "SccExecutor::DistSelfSinkThunk",
    # SPSC rings: per block.
    "SpscQueue::TryPush",
    "SpscQueue::TryPop",
    "SpscQueue::PopBatch",
    # DWS queueing model (Algorithm 2): per drain / per iteration.
    "DwsController::Update",
    "DwsController::OnDrain",
    "DwsController::OnIteration",
    # Observability on the hot loops: per event / per sample.
    "TraceRing::Append",
    "LogHistogram::Add",
]

# Every EvalStats counter must name the hot function that feeds it, or a
# tuple of them when several do (None for aggregates maintained by the
# cold per-SCC / per-batch drivers).
# --check-roots parses EvalStats::Counters() and fails when a counter is
# missing here — a new per-tuple counter cannot ship without registering
# the loop that bumps it, and that loop must be hot-reachable.
EVALSTATS_COUNTER_SITES = {
    "seconds": None,
    "num_sccs": None,
    "total_local_iterations": "SccExecutor::LocalIteration",
    "max_local_iterations": "SccExecutor::LocalIteration",
    # A local rule's batches skip Distribute; LocalEmitThunk counts them.
    "tuples_routed": ("Distributor::Route", "SccExecutor::LocalEmitThunk"),
    "tuples_folded": "Distributor::EmitResolved",
    "tuples_emitted": ("Distributor::EmitResolved",
                       "SccExecutor::LocalEmitThunk"),
    "blocks_sent": "Distributor::SendBlock",
    "self_loop_tuples": ("Distributor::Route",
                         "SccExecutor::LocalEmitThunk"),
    "merges": "RecursiveTable::MergeWire",
    "accepts": "RecursiveTable::MergeWire",
    # Always 0 since the existence cache was removed; kept only for
    # perfbench's frozen runtime.cache_hit_ratio, so no hot function feeds it.
    "cache_hits": None,
    "merge_probe_cmps": "RecursiveTable::MergeWire",
    "pipeline_batches": "BatchPipelineRunner::RunBatch",
    "pipeline_rows_selected": "BatchPipelineRunner::RunBatch",
    "idle_wait_seconds": "SccExecutor::InactiveWait",
    "trace_dropped": "TraceRing::Append",
    "update_batches": None,     # once per ApplyUpdates batch (cold driver)
    "update_recomputes": None,  # set by ApplyUpdates' fallback (cold driver)
    "delta_tuples_in": None,    # per-batch aggregate in the cold driver
    "rederived_tuples": None,   # per delete-phase batch (cold driver)
    "update_rows_scanned": None,  # update path's full passes (cold driver)
    # Always 0 since morsel stealing was removed; kept only for perfbench's
    # frozen core.steal_* metrics, so no hot function feeds them.
    "morsels_published": None,
    "morsels_stolen": None,
    "tuples_stolen": None,
    "pool_fallback_gangs": None,  # once per oversized gang (cold dispatch)
}


class Finding:
    def __init__(self, rule, path, line, message, trace=None):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.trace = trace or []

    def __str__(self):
        s = f"{self.path}:{self.line}: [{self.rule}] {self.message}"
        for hop in self.trace:
            s += f"\n    {hop}"
        return s


# --- Source preprocessing --------------------------------------------------

def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line structure
    (same algorithm as tools/lint/dcd_lint.py)."""
    out = []
    i, n = 0, len(text)
    state = "code"
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


def blank_preprocessor_lines(code):
    """Blanks #directive lines (with backslash continuations) so macro
    bodies cannot unbalance the scope parser."""
    lines = code.split("\n")
    i = 0
    while i < len(lines):
        if lines[i].lstrip().startswith("#"):
            while True:
                cont = lines[i].rstrip().endswith("\\")
                lines[i] = ""
                if not cont or i + 1 >= len(lines):
                    break
                i += 1
        i += 1
    return "\n".join(lines)


# --- Function / scope parser -----------------------------------------------

CTRL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "else", "do", "try", "new", "delete", "throw", "case",
    "default", "operator", "static_assert", "alignas", "noexcept",
    "co_await", "co_return", "co_yield", "assert", "defined", "requires",
}

FUNC_NAME_RE = re.compile(r"([A-Za-z_~][\w]*(?:\s*::\s*~?[A-Za-z_][\w]*)*)\s*$")
CLASS_RE = re.compile(
    r"^(?:typedef\s+)?(?:class|struct|union)\s+"
    r"(?:alignas\s*\([^)]*\)\s*)?(?:\[\[[^\]]*\]\]\s*)?([A-Za-z_]\w*)")
NAMESPACE_RE = re.compile(r"^(?:inline\s+)?namespace\b\s*([A-Za-z_]\w*)?")
TEMPLATE_PREFIX_RE = re.compile(r"^\s*template\s*<[^<>]*(?:<[^<>]*>[^<>]*)*>")


class FunctionDef:
    __slots__ = ("qname", "name", "cls", "rel", "prefix", "sig_line",
                 "body_start_line", "body", "body_offset", "calls",
                 "primitives", "hot_annotated")

    def __init__(self, qname, name, cls, rel):
        self.qname = qname
        self.name = name
        self.cls = cls
        self.rel = rel
        self.prefix = ""
        self.sig_line = 0
        self.body_start_line = 0
        self.body = ""
        self.body_offset = 0
        self.calls = []        # (callee FunctionDef, call line)
        self.primitives = []   # (rule, line, message)
        self.hot_annotated = False


class ClassInfo:
    __slots__ = ("name", "methods", "member_types", "fn_members")

    def __init__(self, name):
        self.name = name
        self.methods = set()
        self.member_types = {}   # var name -> class name (known classes)
        self.fn_members = set()  # std::function-typed member names


def classify_scope(prefix):
    """Classifies the text before a '{': ('namespace', name),
    ('class', name), ('function', qualified-name) or ('other', None)."""
    s = prefix.strip()
    s = TEMPLATE_PREFIX_RE.sub("", s).strip()
    if not s:
        return ("other", None)
    m = NAMESPACE_RE.match(s)
    if m:
        return ("namespace", m.group(1) or "")
    if re.match(r"^enum\b", s):
        return ("other", None)
    m = CLASS_RE.match(s)
    if m and "(" not in s.split(m.group(1))[0]:
        return ("class", m.group(1))
    idx = s.find("(")
    if idx < 0:
        return ("other", None)
    head = s[:idx].rstrip()
    m = FUNC_NAME_RE.search(head)
    if m is None:
        return ("other", None)
    name = re.sub(r"\s+", "", m.group(1))
    base = name.split("::")[-1].lstrip("~")
    if base in CTRL_KEYWORDS or name.split("::")[0] in CTRL_KEYWORDS:
        return ("other", None)
    # A top-level '=' before the name means an initializer, not a def.
    depth = 0
    for i, c in enumerate(s[:idx]):
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth = max(0, depth - 1)
        elif c == "=" and depth == 0:
            if i + 1 < len(s) and s[i + 1] == "=":
                continue
            if i > 0 and s[i - 1] in "<>!=+-*/&|^":
                continue
            return ("other", None)
    return ("function", name)


def parse_functions(code, rel):
    """Parses stripped code into FunctionDef records with body spans."""
    funcs = []
    stack = []  # (kind, name, body_start_index, prefix, stmt_start)
    stmt_start = 0
    paren_depth = 0
    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c == "(":
            paren_depth += 1
        elif c == ")":
            paren_depth = max(0, paren_depth - 1)
        elif c == ";" and paren_depth == 0:
            stmt_start = i + 1
        elif c == "{":
            if paren_depth > 0:
                stack.append(("other", None, i, "", stmt_start))
            else:
                prefix = code[stmt_start:i]
                kind, name = classify_scope(prefix)
                stack.append((kind, name, i, prefix, stmt_start))
            paren_depth = 0
            stmt_start = i + 1
        elif c == "}":
            paren_depth = 0
            if stack:
                kind, name, start, prefix, pstart = stack.pop()
                if kind == "function":
                    cls = None
                    if "::" in name:
                        parts = name.split("::")
                        cls, fname = parts[-2], parts[-1]
                        qname = f"{cls}::{fname}"
                    else:
                        fname = name
                        for k, nm, _, _, _ in reversed(stack):
                            if k == "class":
                                cls = nm
                                break
                        qname = f"{cls}::{fname}" if cls else fname
                    fd = FunctionDef(qname, fname, cls, rel)
                    fd.prefix = prefix
                    fd.sig_line = code.count("\n", 0, pstart) + 1
                    fd.body_start_line = code.count("\n", 0, start) + 1
                    fd.body = code[start + 1:i]
                    fd.body_offset = start + 1
                    funcs.append(fd)
            stmt_start = i + 1
        i += 1
    return funcs


# --- Declarations: member types, std::function variables, virtuals ---------

FN_ALIAS_RE = re.compile(r"using\s+(\w+)\s*=\s*std\s*::\s*function\b")
VIRTUAL_DECL_RE = re.compile(r"\bvirtual\b[^;{=()]*?([A-Za-z_]\w*)\s*\(")
MEMBER_DECL_RE = re.compile(
    r"(?:^|[;{}]\s*|\n\s*)(?:mutable\s+|static\s+|const\s+|constexpr\s+)*"
    r"(std\s*::\s*unique_ptr|std\s*::\s*shared_ptr|[A-Za-z_][\w:]*)"
    r"\s*(?:<\s*([A-Za-z_][\w:]*)[^;{}()]*>)?\s*"
    r"(?:const\s*)?[&*]?\s*(\w+)\s*(?:=[^;{}]*|\{[^;{}]*\})?\s*;")
LOCAL_DECL_RE = re.compile(
    r"(?:^|[;{}()]\s*|\n\s*)(?:const\s+)?"
    r"(std\s*::\s*unique_ptr|std\s*::\s*shared_ptr|[A-Za-z_][\w:]*)"
    r"\s*(?:<\s*([A-Za-z_][\w:]*)[^;{}()]*>)?\s*"
    r"(?:const\s*)?[&*]+?\s*(\w+)\s*[=;({]")
PARAM_DECL_RE = re.compile(
    r"(?:const\s+)?([A-Za-z_][\w:]*)\s*(?:<[^()]*?>)?\s*"
    r"(?:const\s*)?[&*]?\s*(\w+)\s*(?:[,)=]|$)")


def base_type(name, template_arg, known_classes):
    """Maps a declaration's spelled type to a known class name, unwrapping
    smart pointers and dropping namespace qualifiers."""
    name = re.sub(r"\s+", "", name or "")
    if name in ("std::unique_ptr", "std::shared_ptr"):
        name = re.sub(r"\s+", "", template_arg or "")
    short = name.split("::")[-1]
    if short in known_classes:
        return short
    return None


# --- Primitive patterns ----------------------------------------------------

ALLOC_RE = re.compile(
    r"(?<![\w.])new\b(?!\s*\()|(?<![\w.])new\s*\(|\bmalloc\s*\(|\bcalloc\s*\("
    r"|\brealloc\s*\(|\bmake_unique\b|\bmake_shared\b|\bstrdup\s*\(")
MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(?:recursive_|shared_|timed_)?mutex\b"
    r"|\b(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|\bcondition_variable\b|\bMutexLock\b"
    r"|(?:\.|->)\s*(?:Lock|lock|try_lock)\s*\("
    r"|\bpthread_mutex_lock\b|\bsleep_for\b|\bsleep_until\b"
    r"|\busleep\b|\bnanosleep\b")
THROW_RE = re.compile(r"\bthrow\b")

PRIMITIVE_RULES = [
    ("alloc", ALLOC_RE, "raw heap allocation on a hot path"),
    ("mutex", MUTEX_RE, "lock/blocking primitive on a hot path"),
    ("throw", THROW_RE, "throw on a hot path"),
]

CALL_RE = re.compile(r"(?:(\w+)\s*(?:\.|->)\s*)?([A-Za-z_]\w*)\s*\(")
QUAL_CALL_RE = re.compile(r"\b(\w+)\s*::\s*(\w+)\s*\(")

# --- Annotations -----------------------------------------------------------

HOT_ROOT_RE = re.compile(r"\bDCD_HOT_ROOT\b")
COLD_CALL_RE = re.compile(r"\bDCD_COLD_CALL\s*\(")
COLD_CALL_RAW_RE = re.compile(r"DCD_COLD_CALL\s*\(\s*\"((?:[^\"\\]|\\.)*)\"",
                              re.S)
MIN_JUSTIFICATION = 15


class SourceFile:
    def __init__(self, path, rel):
        self.path = path
        self.rel = rel
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            self.raw = f.read()
        self.raw_lines = self.raw.split("\n")
        stripped = strip_comments_and_strings(self.raw)
        self.code = blank_preprocessor_lines(stripped)
        self.code_lines = self.code.split("\n")
        self.cold_lines = set()       # lines suppressed by DCD_COLD_CALL
        self.annotation_errors = []   # Finding list

    def scan_annotations(self):
        """Resolves each DCD_COLD_CALL to the line set it suppresses (its
        own line plus the next code-bearing line) and validates the
        justification from the raw text."""
        for m in COLD_CALL_RE.finditer(self.code):
            lineno = self.code.count("\n", 0, m.start()) + 1
            raw_from = "\n".join(self.raw_lines[lineno - 1:lineno + 3])
            jm = COLD_CALL_RAW_RE.search(raw_from)
            if jm is None or len(jm.group(1).strip()) < MIN_JUSTIFICATION:
                self.annotation_errors.append(Finding(
                    "cold-justification", self.rel, lineno,
                    "DCD_COLD_CALL without a justification (need a string "
                    f"literal of at least {MIN_JUSTIFICATION} characters "
                    "saying why this call is not per-tuple work)"))
                continue
            self.cold_lines.add(lineno)
            # Suppress the next code-bearing line (skipping blank and
            # comment-only lines, which the stripping already blanked).
            for nxt in range(lineno + 1, min(lineno + 5,
                                             len(self.code_lines) + 1)):
                text = self.code_lines[nxt - 1].strip()
                if not text:
                    continue
                if text.startswith("DCD_COLD_CALL"):
                    break  # Let the next annotation claim its own target.
                self.cold_lines.add(nxt)
                break


# --- Whole-program model ---------------------------------------------------

class Program:
    def __init__(self):
        self.files = {}          # rel -> SourceFile
        self.funcs = []          # all FunctionDef
        self.by_qname = {}       # qname -> [FunctionDef]
        self.by_base = {}        # bare name -> [FunctionDef]
        self.classes = {}        # class name -> ClassInfo
        self.fn_aliases = set()  # aliases of std::function
        self.virtual_names = set()

    def add_file(self, sf):
        self.files[sf.rel] = sf

    def build(self):
        # Pass 1: aliases and virtual declarations (repo-global).
        for sf in self.files.values():
            self.fn_aliases.update(FN_ALIAS_RE.findall(sf.code))
            self.virtual_names.update(VIRTUAL_DECL_RE.findall(sf.code))
        # Pass 2: functions and class method sets.
        for sf in self.files.values():
            for fd in parse_functions(sf.code, sf.rel):
                fd.hot_annotated = bool(HOT_ROOT_RE.search(fd.prefix))
                self.funcs.append(fd)
                self.by_qname.setdefault(fd.qname, []).append(fd)
                self.by_base.setdefault(fd.name, []).append(fd)
                if fd.cls:
                    self.classes.setdefault(
                        fd.cls, ClassInfo(fd.cls)).methods.add(fd.name)
        # Pass 3: member declarations per class (types + std::function).
        for sf in self.files.values():
            self._scan_members(sf)
        # Pass 4: call edges and primitives per function body.
        for fd in self.funcs:
            sf = self.files[fd.rel]
            self._scan_body(sf, fd)

    def _scan_members(self, sf):
        # Re-run the scope parser to attribute member declarations to their
        # class bodies (function bodies are excluded so locals don't leak
        # into the member map).
        class_spans = []
        stack = []
        stmt_start = 0
        paren_depth = 0
        code = sf.code
        for i, c in enumerate(code):
            if c == "(":
                paren_depth += 1
            elif c == ")":
                paren_depth = max(0, paren_depth - 1)
            elif c == ";" and paren_depth == 0:
                stmt_start = i + 1
            elif c == "{":
                if paren_depth > 0:
                    stack.append(("other", None, i))
                else:
                    kind, name = classify_scope(code[stmt_start:i])
                    stack.append((kind, name, i))
                paren_depth = 0
                stmt_start = i + 1
            elif c == "}":
                paren_depth = 0
                if stack:
                    kind, name, start = stack.pop()
                    if kind == "class" and name:
                        class_spans.append((name, start + 1, i))
                stmt_start = i + 1
        for name, start, end in class_spans:
            info = self.classes.setdefault(name, ClassInfo(name))
            body = code[start:end]
            # Mask nested braces (methods, nested classes) so only direct
            # member declarations match.
            masked = mask_nested_braces(body)
            for m in MEMBER_DECL_RE.finditer(masked):
                tname, targ, var = m.group(1), m.group(2), m.group(3)
                tclean = re.sub(r"\s+", "", tname)
                if tclean == "std::function" or tclean in self.fn_aliases:
                    info.fn_members.add(var)
                    continue
                bt = base_type(tname, targ, self.classes)
                if bt:
                    info.member_types[var] = bt
            for m in re.finditer(
                    r"std\s*::\s*function\s*<[^;]*>\s*(\w+)\s*;", masked):
                info.fn_members.add(m.group(1))

    def _local_types(self, fd):
        """Receiver types for locals and parameters of one function."""
        types = {}
        fn_vars = set()
        paren = fd.prefix.find("(")
        params = fd.prefix[paren:] if paren >= 0 else ""
        for text in (params, fd.body):
            for m in MEMBER_DECL_RE.finditer(text):
                bt = base_type(m.group(1), m.group(2), self.classes)
                if bt:
                    types[m.group(3)] = bt
                tclean = re.sub(r"\s+", "", m.group(1))
                if tclean == "std::function" or tclean in self.fn_aliases:
                    fn_vars.add(m.group(3))
            for m in LOCAL_DECL_RE.finditer(text):
                bt = base_type(m.group(1), m.group(2), self.classes)
                if bt:
                    types[m.group(3)] = bt
        for m in PARAM_DECL_RE.finditer(params):
            tclean = re.sub(r"\s+", "", m.group(1))
            if tclean.split("::")[-1] == "function" or \
                    tclean in self.fn_aliases:
                fn_vars.add(m.group(2))
            bt = base_type(m.group(1), None, self.classes)
            if bt:
                types[m.group(2)] = bt
        return types, fn_vars

    def _scan_body(self, sf, fd):
        body = fd.body
        off = fd.body_offset
        local_types, local_fn_vars = self._local_types(fd)
        cls_info = self.classes.get(fd.cls) if fd.cls else None

        def line_of(pos):
            return sf.code.count("\n", 0, off + pos) + 1

        # Primitives by pattern.
        for rule, pattern, msg in PRIMITIVE_RULES:
            for m in pattern.finditer(body):
                fd.primitives.append((rule, line_of(m.start()), msg))

        seen_calls = set()
        # Qualified calls: Class::Name(...).
        for m in QUAL_CALL_RE.finditer(body):
            cls, name = m.group(1), m.group(2)
            qname = f"{cls}::{name}"
            for target in self.by_qname.get(qname, []):
                key = (id(target), line_of(m.start()))
                if key not in seen_calls:
                    seen_calls.add(key)
                    fd.calls.append((target, line_of(m.start())))

        for m in CALL_RE.finditer(body):
            recv, name = m.group(1), m.group(2)
            lineno = line_of(m.start(2))
            if name in CTRL_KEYWORDS:
                continue
            # A call whose receiver expression is too complex for the
            # receiver capture (`snapshots[r].size()`, `Foo().Bar()`) is
            # still recognizably a member/qualified call by the character
            # before the name; mark it so resolution never guesses a
            # member target by bare name.
            unparsed_member = False
            if recv is None:
                before = body[:m.start(2)].rstrip()
                if before.endswith("::"):
                    continue  # Qualified; QUAL_CALL_RE owns these.
                if before.endswith((".", "->")):
                    unparsed_member = True
            # std::function invocation: member of this class or a local.
            if recv is None and not unparsed_member and (
                    name in local_fn_vars or
                    (cls_info and name in cls_info.fn_members)):
                fd.primitives.append((
                    "fn-call", lineno,
                    f"std::function '{name}' invoked (type-erased target; "
                    "use a {fn, ctx} function-pointer sink like "
                    "BatchEmitSink)"))
                continue
            if recv is not None:
                rt = local_types.get(recv)
                if rt is None and cls_info:
                    rt = cls_info.member_types.get(recv)
                if rt is not None:
                    rinfo = self.classes.get(rt)
                    if rinfo and name in rinfo.fn_members:
                        fd.primitives.append((
                            "fn-call", lineno,
                            f"std::function '{rt}::{name}' invoked"))
                        continue
            # Virtual dispatch by declared-virtual method name.
            if name in self.virtual_names:
                fd.primitives.append((
                    "virtual", lineno,
                    f"virtual dispatch through {name}() (declared virtual; "
                    "devirtualize or justify with DCD_COLD_CALL)"))
                continue
            targets = self._resolve(fd, recv, name, local_types, cls_info,
                                    unparsed_member)
            for target in targets:
                key = (id(target), lineno)
                if key not in seen_calls:
                    seen_calls.add(key)
                    fd.calls.append((target, lineno))

    def _resolve(self, fd, recv, name, local_types, cls_info,
                 unparsed_member=False):
        if recv == "this":
            recv = None
        if recv is not None:
            rt = local_types.get(recv)
            if rt is None and cls_info:
                rt = cls_info.member_types.get(recv)
            if rt is not None:
                # Receiver type known: method of that class, or foreign
                # (std:: container etc.) — never fall through to the
                # all-candidates set, that is what keeps DynIndex::Insert
                # from polluting FlatTupleSet::Insert call sites.
                return self.by_qname.get(f"{rt}::{name}", [])
            # Member call with no type evidence: never guess the target by
            # bare name (a stray `.size()` on a std::vector must not link
            # to an unrelated class's size()). The hot-root registry exists
            # precisely so entry points stay covered across such gaps —
            # every function a complex-receiver call can enter is either a
            # registered root or reached through a typed edge.
            return []
        if unparsed_member:
            return []
        if fd.cls and cls_info and name in cls_info.methods:
            return self.by_qname.get(f"{fd.cls}::{name}", [])
        # Bare call: free functions only (a foreign class's method cannot
        # be called without a receiver).
        return [c for c in self.by_base.get(name, []) if c.cls is None]


def mask_nested_braces(body):
    """Replaces the content of nested {...} regions with spaces so regexes
    see only the top level of a class body."""
    out = []
    depth = 0
    for c in body:
        if c == "{":
            depth += 1
            out.append(" ")
        elif c == "}":
            depth = max(0, depth - 1)
            out.append(" ")
        elif depth > 0:
            out.append("\n" if c == "\n" else " ")
        else:
            out.append(c)
    return "".join(out)


# --- Reachability ----------------------------------------------------------

def compute_reachability(program, roots):
    """BFS over call edges from the root set, honoring DCD_COLD_CALL edge
    cuts. Returns {FunctionDef: (parent FunctionDef|None, call line)}."""
    parent = {}
    queue = []
    for fd in roots:
        if fd not in parent:
            parent[fd] = (None, 0)
            queue.append(fd)
    while queue:
        fd = queue.pop(0)
        sf = program.files[fd.rel]
        for callee, line in fd.calls:
            if line in sf.cold_lines:
                continue
            if callee not in parent:
                parent[callee] = (fd, line)
                queue.append(callee)
    return parent


def trace_for(program, parent, fd):
    hops = []
    cur = fd
    while cur is not None:
        par, line = parent[cur]
        where = f"{cur.rel}:{cur.body_start_line}"
        if par is None:
            hops.append(f"{cur.qname} ({where}) [hot root]")
        else:
            hops.append(f"{cur.qname} ({where}) [called at {par.rel}:{line}]")
        cur = par
    hops.reverse()
    return ["reachability: " + hops[0]] + ["  -> " + h for h in hops[1:]]


def analyze(program, roots, rules):
    findings = []
    for sf in program.files.values():
        findings.extend(sf.annotation_errors)
    parent = compute_reachability(program, roots)
    for fd in sorted(parent.keys(), key=lambda f: (f.rel, f.body_start_line)):
        sf = program.files[fd.rel]
        for rule, line, msg in fd.primitives:
            if rule not in rules:
                continue
            if line in sf.cold_lines:
                continue
            findings.append(Finding(
                rule, fd.rel, line, f"{msg} (in {fd.qname})",
                trace=trace_for(program, parent, fd)))
    return findings, parent


# --- libclang precision layer ----------------------------------------------

def run_libclang_layer(program, repo_root, build_dir):
    """AST-exact edges and primitives over compile_commands.json. Entirely
    optional: self-skips with a notice when the clang python bindings or
    the compilation database are absent, and downgrades internal failures
    to a notice so a broken clang install cannot mask the textual layer."""
    try:
        import clang.cindex as ci
    except ImportError:
        print("deepcheck: python clang bindings not found; skipping "
              "libclang layer (runs in CI)")
        return
    cc_path = os.path.join(build_dir or "", "compile_commands.json")
    if not build_dir or not os.path.exists(cc_path):
        print("deepcheck: no compile_commands.json; skipping libclang layer")
        return
    try:
        index = ci.Index.create()
        db = ci.CompilationDatabase.fromDirectory(build_dir)
    except Exception as e:  # noqa: BLE001 - любой clang setup failure
        print(f"deepcheck: libclang unavailable ({e}); skipping layer")
        return

    def containing_func(rel, line):
        best = None
        for fd in program.funcs:
            if fd.rel != rel:
                continue
            if fd.sig_line <= line:
                if best is None or fd.sig_line > best.sig_line:
                    end = fd.body_start_line + fd.body.count("\n")
                    if line <= end + 1:
                        best = fd
        return best

    kinds = ci.CursorKind
    added = 0
    tus = 0
    try:
        for cmd in db.getAllCompileCommands():
            path = os.path.normpath(
                os.path.join(cmd.directory, cmd.filename))
            rel = os.path.relpath(path, repo_root).replace(os.sep, "/")
            if rel not in program.files:
                continue
            args = [a for a in list(cmd.arguments)[1:]
                    if a not in (cmd.filename, "-c", "-o")][:-1]
            try:
                tu = index.parse(path, args=args)
            except Exception as e:  # noqa: BLE001
                print(f"deepcheck: libclang failed on {rel} ({e}); skipped")
                continue
            tus += 1
            for cur in tu.cursor.walk_preorder():
                if cur.location.file is None:
                    continue
                cur_rel = os.path.relpath(
                    str(cur.location.file), repo_root).replace(os.sep, "/")
                if cur_rel not in program.files:
                    continue
                fd = None
                if cur.kind == kinds.CXX_NEW_EXPR:
                    fd = containing_func(cur_rel, cur.location.line)
                    if fd:
                        fd.primitives.append((
                            "alloc", cur.location.line,
                            "operator new (libclang)"))
                        added += 1
                elif cur.kind == kinds.CXX_THROW_EXPR:
                    fd = containing_func(cur_rel, cur.location.line)
                    if fd:
                        fd.primitives.append((
                            "throw", cur.location.line, "throw (libclang)"))
                        added += 1
                elif cur.kind == kinds.CALL_EXPR:
                    ref = cur.referenced
                    if ref is None:
                        continue
                    fd = containing_func(cur_rel, cur.location.line)
                    if fd is None:
                        continue
                    if ref.kind == kinds.CXX_METHOD and \
                            ref.is_virtual_method():
                        fd.primitives.append((
                            "virtual", cur.location.line,
                            f"virtual call to {ref.spelling} (libclang)"))
                        added += 1
                    sem = ref.semantic_parent
                    if ref.spelling == "operator()" and sem is not None \
                            and "function<" in (sem.displayname or ""):
                        fd.primitives.append((
                            "fn-call", cur.location.line,
                            "std::function::operator() (libclang)"))
                        added += 1
                    # Precise intra-repo call edge.
                    rdef = ref.get_definition() or ref
                    if rdef.location.file is not None:
                        rrel = os.path.relpath(
                            str(rdef.location.file),
                            repo_root).replace(os.sep, "/")
                        if rrel in program.files:
                            callee = containing_func(
                                rrel, rdef.location.line + 1)
                            if callee is not None and \
                                    callee.name == ref.spelling:
                                fd.calls.append(
                                    (callee, cur.location.line))
    except Exception as e:  # noqa: BLE001
        print(f"deepcheck: libclang layer aborted ({e}); textual results "
              "stand alone for this run")
        return
    print(f"deepcheck: libclang layer parsed {tus} TU(s), "
          f"{added} AST primitive(s)/edge(s) added")


# --- Root resolution -------------------------------------------------------

def resolve_roots(program, registry, extra, use_registry):
    roots = []
    errors = []
    if use_registry:
        for qname in registry:
            defs = program.by_qname.get(qname, [])
            if not defs:
                errors.append(Finding(
                    "root-missing", "<registry>", 0,
                    f"declared hot root '{qname}' not found in the parsed "
                    "tree (renamed? update HOT_ROOTS in dcd_deepcheck.py)"))
            roots.extend(defs)
    for qname in extra:
        defs = program.by_qname.get(qname, []) or \
            program.by_base.get(qname, [])
        if not defs:
            errors.append(Finding(
                "root-missing", "<cli>", 0,
                f"--roots entry '{qname}' not found"))
        roots.extend(defs)
    for fd in program.funcs:
        if fd.hot_annotated and fd not in roots:
            roots.append(fd)
    return roots, errors


def check_roots(program):
    """Bidirectional pin: registry <-> DCD_HOT_ROOT annotations, plus the
    EvalStats counter-site map."""
    findings = []
    annotated = {fd.qname for fd in program.funcs if fd.hot_annotated}
    registry = set(HOT_ROOTS)
    for qname in sorted(registry - annotated):
        where = program.by_qname.get(qname)
        findings.append(Finding(
            "root-pin", where[0].rel if where else "<registry>",
            where[0].sig_line if where else 0,
            f"hot root '{qname}' is in the registry but carries no "
            "DCD_HOT_ROOT annotation in source"))
    for qname in sorted(annotated - registry):
        fds = program.by_qname[qname]
        findings.append(Finding(
            "root-pin", fds[0].rel, fds[0].sig_line,
            f"'{qname}' is annotated DCD_HOT_ROOT but absent from the "
            "HOT_ROOTS registry in tools/analyze/dcd_deepcheck.py — "
            "register it so its transitive callees are verified"))
    # EvalStats counter sites.
    counters = []
    for fd in program.by_qname.get("EvalStats::Counters", []):
        counters.extend(re.findall(r'\{\s*"(\w+)"', self_raw_body(program, fd)))
    if not counters:
        findings.append(Finding(
            "root-pin", "src/core/engine.cc", 0,
            "could not parse EvalStats::Counters() — counter-site pinning "
            "has no input"))
    roots, _ = resolve_roots(program, HOT_ROOTS, [], True)
    parent = compute_reachability(program, roots)
    reachable = {fd.qname for fd in parent}
    for counter in counters:
        if counter not in EVALSTATS_COUNTER_SITES:
            findings.append(Finding(
                "root-pin", "src/core/engine.cc", 0,
                f"EvalStats counter '{counter}' has no entry in "
                "EVALSTATS_COUNTER_SITES — register the hot loop that "
                "feeds it (or map it to None if a cold driver owns it)"))
            continue
        sites = EVALSTATS_COUNTER_SITES[counter]
        if sites is None:
            continue
        for site in sites if isinstance(sites, tuple) else (sites,):
            if site not in program.by_qname:
                findings.append(Finding(
                    "root-pin", "<registry>", 0,
                    f"counter '{counter}' maps to '{site}' which does not "
                    "exist in the parsed tree"))
            elif site not in reachable:
                findings.append(Finding(
                    "root-pin", "<registry>", 0,
                    f"counter '{counter}' is fed by '{site}' which is not "
                    "hot-reachable — a per-tuple counter outside the proven "
                    "hot-path set means an unregistered hot loop"))
    for counter in EVALSTATS_COUNTER_SITES:
        if counters and counter not in counters:
            findings.append(Finding(
                "root-pin", "<registry>", 0,
                f"EVALSTATS_COUNTER_SITES lists '{counter}' which "
                "EvalStats::Counters() no longer reports"))
    return findings


def self_raw_body(program, fd):
    """The function body's raw text, located by line span: the stripped
    code keeps line structure but not byte offsets (preprocessor blanking
    shortens lines), so offsets into `code` don't index into `raw`."""
    sf = program.files[fd.rel]
    first = fd.body_start_line - 1
    last = first + fd.body.count("\n") + 1
    return "\n".join(sf.raw_lines[first:last])


# --- Discovery and driver --------------------------------------------------

def discover_files(src_root):
    rels = []
    for dirpath, _, filenames in os.walk(src_root):
        for fn in sorted(filenames):
            if fn.endswith((".h", ".cc", ".cpp", ".hpp")):
                rels.append(os.path.relpath(os.path.join(dirpath, fn),
                                            src_root))
    return sorted(rels)


def load_program(src_root, prefix=""):
    program = Program()
    for rel in discover_files(src_root):
        shown = (prefix + rel).replace(os.sep, "/")
        sf = SourceFile(os.path.join(src_root, rel), shown)
        sf.scan_annotations()
        program.add_file(sf)
    program.build()
    return program


def run_analysis(args):
    repo_root = os.path.abspath(args.repo_root)
    if args.src_root:
        src_root = os.path.abspath(args.src_root)
        prefix = ""
        use_registry = False
    else:
        src_root = os.path.join(repo_root, "src")
        prefix = "src/"
        use_registry = True
    if not os.path.isdir(src_root):
        print(f"deepcheck: source root '{src_root}' not found",
              file=sys.stderr)
        return 3

    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    unknown = [r for r in rules if r not in ALL_RULES]
    if unknown:
        print(f"deepcheck: unknown rule(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 3

    program = load_program(src_root, prefix)
    build_dir = args.build_dir
    if build_dir is None and use_registry:
        candidate = os.path.join(repo_root, "build")
        if os.path.exists(os.path.join(candidate, "compile_commands.json")):
            build_dir = candidate
    if not args.no_libclang:
        run_libclang_layer(program, repo_root, build_dir)

    extra = [r.strip() for r in (args.roots or "").split(",") if r.strip()]
    roots, root_errors = resolve_roots(program, HOT_ROOTS, extra,
                                       use_registry)
    findings, parent = analyze(program, roots, rules)
    findings.extend(root_errors)
    if args.check_roots:
        findings.extend(check_roots(program))

    out_lines = [str(f) for f in findings]
    report = "\n".join(out_lines)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(f"dcd_deepcheck report: {len(findings)} finding(s), "
                    f"{len(roots)} root(s), {len(parent)} reachable "
                    f"function(s), {len(program.funcs)} parsed\n")
            if report:
                f.write(report + "\n")
    if findings:
        print(report)
        print(f"deepcheck: {len(findings)} finding(s)")
        return 2
    print(f"deepcheck: OK ({len(program.files)} files, "
          f"{len(program.funcs)} functions, {len(roots)} hot roots, "
          f"{len(parent)} reachable, rules: {', '.join(rules)})")
    return 0


# --- Self-test -------------------------------------------------------------

SELFTEST_CASES = {
    # Interprocedural alloc: the violation is two hops from the root.
    "alloc": (
        "void Deep() { int* p = new int[64]; delete[] p; }\n"
        "void Helper() { Deep(); }\n"
        "DCD_HOT_ROOT void Root() { Helper(); }\n",
        "void Deep() { int* p = new int[64]; delete[] p; }\n"
        "void Helper() {\n"
        "  DCD_COLD_CALL(\"setup-only scratch growth, once per batch\");\n"
        "  Deep();\n"
        "}\n"
        "DCD_HOT_ROOT void Root() { Helper(); }\n"),
    "mutex": (
        "#include <mutex>\n"
        "std::mutex mu;\n"
        "void Helper() { std::lock_guard<std::mutex> lock(mu); }\n"
        "DCD_HOT_ROOT void Root() { Helper(); }\n",
        "void Helper() { }\n"
        "DCD_HOT_ROOT void Root() { Helper(); }\n"),
    "throw": (
        "void Helper(int x) { if (x < 0) throw 42; }\n"
        "DCD_HOT_ROOT void Root() { Helper(1); }\n",
        "void Helper(int x) { (void)x; }\n"
        "DCD_HOT_ROOT void Root() { Helper(1); }\n"),
    "fn-call": (
        "#include <functional>\n"
        "struct S {\n"
        "  std::function<void(int)> cb;\n"
        "  DCD_HOT_ROOT void Root() { cb(7); }\n"
        "};\n",
        "struct S {\n"
        "  using Fn = void (*)(void*, int);\n"
        "  Fn fn = nullptr;\n"
        "  void* ctx = nullptr;\n"
        "  DCD_HOT_ROOT void Root() { fn(ctx, 7); }\n"
        "};\n"),
    "virtual": (
        "struct Base { virtual void Step(); };\n"
        "struct S {\n"
        "  Base* b;\n"
        "  DCD_HOT_ROOT void Root() { b->Step(); }\n"
        "};\n",
        "struct Base { virtual void Step(); };\n"
        "struct S {\n"
        "  Base* b;\n"
        "  DCD_HOT_ROOT void Root() {\n"
        "    DCD_COLD_CALL(\"monomorphic in practice, cold config path\");\n"
        "    b->Step();\n"
        "  }\n"
        "};\n"),
}


def run_selftest():
    failures = []
    me = os.path.abspath(__file__)
    with tempfile.TemporaryDirectory(prefix="dcd_deepcheck_selftest.") as tmp:
        def run_on(name, text):
            d = os.path.join(tmp, name)
            os.makedirs(d, exist_ok=True)
            with open(os.path.join(d, "case.cc"), "w") as f:
                f.write(text)
            return subprocess.run(
                [sys.executable, me, "--src-root", d, "--no-libclang"],
                capture_output=True, text=True)

        for case, (bad, good) in SELFTEST_CASES.items():
            bad_run = run_on(f"{case}_bad", bad)
            good_run = run_on(f"{case}_good", good)
            if bad_run.returncode != 2:
                failures.append(
                    f"{case}: seeded violation NOT caught "
                    f"(exit {bad_run.returncode})\n{bad_run.stdout}")
            elif f"[{case}]" not in bad_run.stdout:
                failures.append(
                    f"{case}: caught, but not as rule '{case}'\n"
                    f"{bad_run.stdout}")
            elif "reachability:" not in bad_run.stdout or \
                    "Root" not in bad_run.stdout:
                failures.append(
                    f"{case}: no reachability trace printed\n"
                    f"{bad_run.stdout}")
            if good_run.returncode != 0:
                failures.append(
                    f"{case}: clean twin wrongly flagged "
                    f"(exit {good_run.returncode})\n{good_run.stdout}")

        # The alloc trace must show the full 2-hop chain.
        deep = run_on("trace", SELFTEST_CASES["alloc"][0])
        if not ("Root" in deep.stdout and "Helper" in deep.stdout and
                "Deep" in deep.stdout):
            failures.append(f"trace: chain Root->Helper->Deep not printed\n"
                            f"{deep.stdout}")

        # Annotation mechanics: a justification-free DCD_COLD_CALL is an
        # error even when it would otherwise silence a finding.
        bare = (
            "void Helper() { int* p = new int[8]; delete[] p; }\n"
            "DCD_HOT_ROOT void Root() {\n"
            "  DCD_COLD_CALL(\"\");\n"
            "  Helper();\n"
            "}\n")
        bare_run = run_on("bare", bare)
        if bare_run.returncode != 2 or \
                "cold-justification" not in bare_run.stdout:
            failures.append(
                f"bare-justification: expected cold-justification error "
                f"(exit {bare_run.returncode})\n{bare_run.stdout}")

        # An unreachable violation must NOT fire: only hot-rooted paths are
        # held to the purity rules.
        cold = (
            "void ColdSetup() { int* p = new int[8]; delete[] p; }\n"
            "DCD_HOT_ROOT void Root() { }\n")
        cold_run = run_on("cold", cold)
        if cold_run.returncode != 0:
            failures.append(
                f"unreachable: cold allocation wrongly flagged "
                f"(exit {cold_run.returncode})\n{cold_run.stdout}")

    if failures:
        print("deepcheck self-test FAILED:")
        for f in failures:
            print("  " + f.replace("\n", "\n  "))
        return 1
    print(f"deepcheck self-test OK: {len(SELFTEST_CASES)} seeded violation "
          "classes caught with traces, clean twins pass, justification "
          "mandatory, unreachable code exempt")
    return 0


# --- Main ------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repo-root", default=REPO_ROOT)
    parser.add_argument("--build-dir", default=None,
                        help="build dir containing compile_commands.json")
    parser.add_argument("--src-root", default=None,
                        help="analyze this tree instead of <repo>/src "
                             "(disables the built-in root registry; roots "
                             "come from DCD_HOT_ROOT annotations)")
    parser.add_argument("--roots", default="",
                        help="comma-separated extra root names")
    parser.add_argument("--rules", default=",".join(ALL_RULES))
    parser.add_argument("--report", default=None,
                        help="also write findings to this file")
    parser.add_argument("--no-libclang", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--check-roots", action="store_true",
                        help="also verify registry<->annotation agreement "
                             "and the EvalStats counter-site pin")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(run_selftest())
    sys.exit(run_analysis(args))


if __name__ == "__main__":
    main()
