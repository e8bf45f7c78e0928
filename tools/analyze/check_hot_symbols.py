#!/usr/bin/env python3
"""Binary-level hot-path purity backstop.

The source-level analyzer (tools/analyze/dcd_deepcheck.py) proves purity
over the call graph it can see; this check closes the gap it can't: after
inlining, does any *hot function's own body* in the optimized binary still
make a direct call to an allocator, a lock, or a sleep? Container growth
the textual rules deliberately ignore (vector push_back, flat-table
Rehash) either stays behind a named local symbol (_M_realloc_insert,
Rehash — DCD_COLD_FN keeps it out-of-line) or inlines as a direct
`call operator new` on the doubling branch; the former is allowed
implicitly, the latter needs an entry in ALLOWED_CALLS below with a
justification — the binary-level analog of DCD_COLD_CALL. Locks, waits,
and sleeps have no allowance mechanism: a `call pthread_mutex_lock`
inside a hot body fails unconditionally.

Every pattern in HOT_SYMBOL_PATTERNS must select at least one symbol: a
pattern that matches nothing (a rename, a move out of a namespace) fails
the check instead of silently auditing less.

Usage: check_hot_symbols.py <binary> [--objdump TOOL] [--list]

Exit codes: 0 clean, 1 violation, 2 environment problem (no objdump,
unreadable binary) — callers treat 2 as "skipped", mirroring the
clang-tidy self-skip convention in tools/lint.
"""

import argparse
import re
import shutil
import subprocess
import sys

# Anchored demangled-name patterns selecting the hot functions to audit.
# Header-inline roots (FlatTupleSet::Insert, SpscQueue::TryPush) audit as
# part of whichever of these bodies inlined them — exactly the point of a
# post-inlining check.
HOT_SYMBOL_PATTERNS = [
    r"^dcdatalog::RecursiveTable::Merge\w+\(",
    r"^dcdatalog::Distributor::(EmitBatch|EmitResolved|Flush|Route|"
    r"SendBlock)\(",
    r"^dcdatalog::BatchPipelineRunner::(Push|RunBatch|Finish|FlushLevel)\(",
    r"^dcdatalog::SccExecutor::"
    r"(LocalIteration|GatherAll|PushWithBackpressure|RunUpdateRules|"
    r"InactiveWait|EmitBatchThunk|LocalEmitThunk|DistSinkThunk|"
    r"DistSelfSinkThunk)\(",
    # The fixpoint loop, one out-of-line body per strategy, and whichever
    # strategy hooks (core/strategy.h) the compiler did not inline into it.
    r"^(void )?dcdatalog::(SccExecutor::Fixpoint<|(Global|Dws)Strategy::"
    r"(Next|AfterIteration|Barrier<|UpdateModel)\b)",
    r"^dcdatalog::DwsController::(Update|OnDrain|OnIteration)\(",
]

# Direct call/jmp targets that must never appear inside a hot body without
# an ALLOWED_CALLS entry. Param lists survive demangling
# ("operator new(unsigned long)@plt"), C symbols have none
# ("pthread_mutex_lock@plt"). libstdc++'s std::__throw_length_error-style
# precondition stubs are deliberately NOT listed: one accompanies every
# inlined container growth path and the source-level `throw` rule already
# owns user-written throws.
BANNED_TARGET_RE = re.compile(
    r"^(malloc|calloc|realloc|free|aligned_alloc|posix_memalign"
    r"|operator new|operator delete"
    r"|pthread_mutex_lock|pthread_mutex_timedlock|pthread_cond_wait"
    r"|pthread_cond_timedwait|pthread_rwlock_\w+lock"
    r"|__cxa_throw|__cxa_allocate_exception"
    r"|nanosleep|usleep|sleep)(\(.*\))?(@plt)?$")

# Audited allocator calls with a reviewed justification — the binary-level
# DCD_COLD_CALL. Each entry: (symbol regex, target regex, justification).
# Allocator family only; adding a lock/wait/sleep entry here is a review
# failure, not a supported escape hatch.
ALLOWED_CALLS = [
    (r"SccExecutor::(DistSelfSinkThunk|LocalEmitThunk|GatherAll)\(",
     r"^operator (new|delete)",
     "gather scratch (vector<uint64_t> of packed wire words) doubling "
     "branch inlined — amortized O(1) per tuple, capacity retained across "
     "iterations; a local rule's batch appends to the same scratch"),
    (r"Distributor::EmitResolved\(",
     r"^operator (new|delete)",
     "staged-wire vector<uint64_t> doubling branch inlined — one append "
     "per new fold group, capacity retained across iterations"),
    (r"RecursiveTable::Merge(None|Count|Sum)\(",
     r"^operator (new|delete)",
     "row-store and delta vector doubling branches inlined — amortized "
     "O(1) per accepted tuple, capacity retained across iterations"),
    (r"RecursiveTable::MergeBatch\(",
     r"^operator (new|delete)",
     "the audited MergeNone body above inlines into the batch entry point "
     "at some optimization levels; same amortized allocator sites, just a "
     "different inlining home"),
]

# `.cold` clones hold the paths GCC already proved cold (DCD_CHECK failure
# text, exception plumbing); they are not per-tuple work.
COLD_CLONE_RE = re.compile(r"\[clone [^\]]*\.cold[^\]]*\]")

SYMBOL_HEADER_RE = re.compile(r"^[0-9a-f]+ <(.+)>:$")
CALL_RE = re.compile(r"\b(?:call|jmp)\s+[0-9a-f]+\s+<([^>]+)>")


def pick_objdump(explicit):
    if explicit:
        return explicit if shutil.which(explicit) else None
    for cand in ("objdump", "llvm-objdump"):
        if shutil.which(cand):
            return cand
    return None


def allowed(symbol, target):
    for sym_re, tgt_re, _ in ALLOWED_CALLS:
        if re.search(sym_re, symbol) and re.search(tgt_re, target):
            return True
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("binary")
    parser.add_argument("--objdump", default=None)
    parser.add_argument(
        "--list", action="store_true",
        help="print every audited symbol and each allowed call")
    args = parser.parse_args()

    tool = pick_objdump(args.objdump)
    if tool is None:
        print("check_hot_symbols: no objdump/llvm-objdump; skipping")
        return 2
    try:
        dis = subprocess.run(
            [tool, "-dC", "--no-show-raw-insn", args.binary],
            capture_output=True, text=True, check=True).stdout
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"check_hot_symbols: {tool} failed on {args.binary}: {e}")
        return 2

    hot_res = [re.compile(p) for p in HOT_SYMBOL_PATTERNS]
    current = None          # demangled name of the hot symbol being scanned
    audited = []
    matched = set()         # indexes of the patterns that selected a symbol
    violations = []
    allowed_hits = []
    for line in dis.splitlines():
        m = SYMBOL_HEADER_RE.match(line)
        if m:
            name = m.group(1)
            hits = [i for i, r in enumerate(hot_res) if r.search(name)]
            if hits and not COLD_CLONE_RE.search(name):
                current = name
                audited.append(name)
                matched.update(hits)
            else:
                current = None
            continue
        if current is None:
            continue
        cm = CALL_RE.search(line)
        if cm is None:
            continue
        # Intra-function branches disassemble as <sym+0xNN>; the +0x suffix
        # is stripped so the bare name is matched against the banned list.
        base = cm.group(1).split("+0x")[0].strip()
        if not BANNED_TARGET_RE.match(base):
            continue
        if allowed(current, base):
            allowed_hits.append((current, base))
        else:
            violations.append((current, base, line.strip()))

    unmatched = [p for i, p in enumerate(HOT_SYMBOL_PATTERNS)
                 if i not in matched]
    if unmatched:
        print(f"check_hot_symbols: {len(unmatched)} pattern(s) select no "
              "symbol — a rename or move would make them vacuous; update "
              "HOT_SYMBOL_PATTERNS in tools/analyze/check_hot_symbols.py")
        for pattern in unmatched:
            print(f"  unmatched: {pattern}")
        return 1

    if args.list:
        for name in audited:
            print(f"audited: {name}")
        for sym, target in allowed_hits:
            print(f"allowed: {target}  in  {sym}")

    if violations:
        print(f"check_hot_symbols: {len(violations)} banned call(s) "
              "survive inlining in hot bodies:")
        for sym, target, line in violations:
            print(f"  {sym}\n    -> {target}    [{line}]")
        print("Fix: hoist the allocation/lock out of the hot path, keep "
              "the cold callee out-of-line with DCD_COLD_FN "
              "(src/common/hot_path.h), or — allocator calls only — add a "
              "justified ALLOWED_CALLS entry.")
        return 1

    print(f"check_hot_symbols: OK ({len(audited)} hot symbols audited, "
          f"{len(allowed_hits)} justified allocator call(s), no direct "
          "allocator/lock/sleep calls survive inlining)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
