#!/usr/bin/env python3
"""Async-signal-safety lint for the fatal-signal path.

The crash handler in src/obs/postmortem.cc runs inside SIGSEGV/SIGABRT/
SIGBUS/SIGFPE. Everything reachable from it must stick to async-signal-
safe primitives: write(2) onto stack buffers, atomics, try-locks. A
single malloc or blocking mutex acquire can deadlock or re-fault a
crashing process, and nothing in the type system stops one from creeping
in behind a helper.

This lint compiles the TUs on the fatal-signal path to assembly with the
project's flags, extracts the direct call graph, and walks it from the
handler roots:

  * DENIED symbols (allocation, stdio, blocking locks, unwinding) fail
    the build, with the full call chain printed.
  * pthread_mutex_lock is denied by exact match; pthread_mutex_trylock
    and pthread_mutex_unlock are fine (the query-log flush drains only
    when its try-lock succeeds).
  * Indirect calls (call *%reg) are reported as warnings: the target is
    unknowable statically, so they deserve eyeballs, not a hard failure.
  * Unknown external symbols are warnings too, so glibc renames do not
    brick CI; the deny list is the enforcement surface.

Usage: tools/check_signal_safety.py [--repo DIR] [--cxx g++]
Exit status: 0 clean (warnings allowed), 1 on any denied call chain.
"""

import argparse
import re
import subprocess
import sys

# TUs that contain code reachable from the crash handler.
SIGNAL_PATH_TUS = [
    "src/obs/postmortem.cc",
    "src/obs/query_log.cc",
    "src/obs/flight_recorder.cc",
    "src/obs/raw_write.cc",
]

# BFS roots: any defined function whose demangled name matches one of
# these. CrashHandler is the signal entry; the others are the helpers it
# calls across TU boundaries (listed so the walk still covers them if a
# refactor renames the handler).
ROOT_PATTERNS = [
    r"\bCrashHandler\b",
    r"\bQueryLogSignalFlush\b",
    r"\bDumpFlightRingsJson\b",
]

# Symbols that must never be reachable from a signal handler. Matched
# against both the raw symbol and its demangling.
DENY_EXACT = {
    "malloc", "calloc", "realloc", "free", "aligned_alloc",
    "pthread_mutex_lock",          # blocking; trylock/unlock are allowed
    "pthread_cond_wait", "pthread_cond_timedwait",
    "fopen", "fclose", "fprintf", "printf", "vfprintf", "fputs", "puts",
    "fwrite", "fflush", "snprintf", "vsnprintf", "sprintf",
    "exit",                        # runs atexit handlers; use _exit
    "__cxa_throw", "__cxa_rethrow", "__cxa_allocate_exception",
    "_Unwind_RaiseException",
}
DENY_DEMANGLED_SUBSTR = [
    "operator new",
    "operator delete",
    "std::__throw_",
    "std::mutex::lock",            # std::mutex::try_lock is fine
    "std::lock_guard",
    "std::unique_lock",
]

# External symbols known to be async-signal-safe (POSIX) or compiler
# plumbing with no allocation. Everything else external is a warning.
ALLOW_EXACT = {
    "write", "read", "open", "close", "openat", "unlink", "fsync",
    "raise", "kill", "abort", "_exit", "_Exit", "getpid", "gettid",
    "signal", "sigaction", "sigemptyset", "sigfillset", "sigaddset",
    "clock_gettime", "gettimeofday", "time",
    "memcpy", "memset", "memmove", "memcmp", "strlen", "strnlen",
    "strcmp", "strncmp", "strchr", "strrchr",
    "pthread_mutex_trylock", "pthread_mutex_unlock", "pthread_self",
    "__errno_location", "__stack_chk_fail", "__assert_fail",
    "__memcpy_chk", "__memset_chk",
}

CALL_RE = re.compile(r"^\s+(call|jmp)\s+([A-Za-z_.$][\w.$@]*)")
INDIRECT_RE = re.compile(r"^\s+(call|jmp)\s+\*")
TYPE_RE = re.compile(r"^\s+\.type\s+([\w.$]+),\s*@function")
LABEL_RE = re.compile(r"^([\w.$]+):")


def compile_to_asm(cxx, repo, tu):
    cmd = [cxx, "-std=c++20", "-O2", "-DNDEBUG", "-I", repo, "-S",
           "-o", "-", f"{repo}/{tu}"]
    res = subprocess.run(cmd, capture_output=True, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit(f"error: failed to compile {tu} to assembly")
    return res.stdout


def parse_asm(asm):
    """-> (defined functions, {fn: set(callee)}, {fn: indirect count})."""
    declared = set()
    for line in asm.splitlines():
        m = TYPE_RE.match(line)
        if m:
            declared.add(m.group(1))
    defined = set()
    calls = {}
    indirect = {}
    current = None
    for line in asm.splitlines():
        m = LABEL_RE.match(line)
        if m and m.group(1) in declared:
            current = m.group(1)
            defined.add(current)
            calls.setdefault(current, set())
            continue
        if current is None:
            continue
        if INDIRECT_RE.match(line):
            indirect[current] = indirect.get(current, 0) + 1
            continue
        m = CALL_RE.match(line)
        if m:
            target = m.group(2)
            if target.startswith(".L"):
                continue  # local branch label, not a symbol
            calls[current].add(target.removesuffix("@PLT"))
    return defined, calls, indirect


def demangle(symbols):
    if not symbols:
        return {}
    res = subprocess.run(["c++filt"], input="\n".join(symbols),
                         capture_output=True, text=True)
    names = res.stdout.splitlines() if res.returncode == 0 else symbols
    return dict(zip(symbols, names))


def denied(symbol, pretty):
    if symbol in DENY_EXACT or pretty in DENY_EXACT:
        return True
    return any(s in pretty for s in DENY_DEMANGLED_SUBSTR)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", default=".")
    parser.add_argument("--cxx", default="g++")
    args = parser.parse_args()

    defined, calls, indirect = set(), {}, {}
    for tu in SIGNAL_PATH_TUS:
        asm = compile_to_asm(args.cxx, args.repo, tu)
        d, c, i = parse_asm(asm)
        defined |= d
        for fn, targets in c.items():
            calls.setdefault(fn, set()).update(targets)
        for fn, n in i.items():
            indirect[fn] = indirect.get(fn, 0) + n

    every_symbol = set(defined)
    for targets in calls.values():
        every_symbol |= targets
    pretty = demangle(sorted(every_symbol))

    roots = [fn for fn in defined
             if any(re.search(p, pretty.get(fn, fn)) for p in ROOT_PATTERNS)]
    if not roots:
        raise SystemExit("error: no signal-path roots found — "
                         "did CrashHandler move out of the listed TUs?")

    # BFS; parent links give the call chain for reports.
    parent = {r: None for r in roots}
    queue = list(roots)
    violations = []
    warnings = []
    seen_external = set()
    while queue:
        fn = queue.pop(0)
        if indirect.get(fn, 0) > 0:
            warnings.append(
                f"indirect call(s) in {pretty.get(fn, fn)} "
                f"({indirect[fn]} site(s)) — verify targets by hand")
        for target in sorted(calls.get(fn, ())):
            p = pretty.get(target, target)
            if denied(target, p):
                chain = [p]
                node = fn
                while node is not None:
                    chain.append(pretty.get(node, node))
                    node = parent[node]
                violations.append(" <- ".join(chain))
                continue
            if target in defined:
                if target not in parent:
                    parent[target] = fn
                    queue.append(target)
            elif target not in ALLOW_EXACT and p not in ALLOW_EXACT:
                if target not in seen_external:
                    seen_external.add(target)
                    warnings.append(
                        f"unlisted external '{p}' called from "
                        f"{pretty.get(fn, fn)} — extend ALLOW_EXACT if "
                        f"async-signal-safe")

    reached = len(parent)
    print(f"signal-safety: {len(roots)} root(s), {reached} function(s) "
          f"walked across {len(SIGNAL_PATH_TUS)} TU(s)")
    for w in warnings:
        print(f"  warning: {w}")
    if violations:
        print(f"FAIL: {len(violations)} async-signal-unsafe call chain(s):")
        for v in violations:
            print(f"  {v}")
        return 1
    print("ok: no denied calls reachable from the fatal-signal path")
    return 0


if __name__ == "__main__":
    sys.exit(main())
