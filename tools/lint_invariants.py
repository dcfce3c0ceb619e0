#!/usr/bin/env python3
"""Repo-invariant linter: cross-cutting contracts the compiler cannot check.

Usage:
    lint_invariants.py [--root DIR]    # lint the tree (default: repo root)
    lint_invariants.py --self-test     # prove every rule actually fires

Six rules, each a contract stated in the docs that previously lived only
in review discipline:

  R1  obs metric names at Registry call sites are Prometheus-valid
      ([a-zA-Z_:][a-zA-Z0-9_:]*) and counter names end in `_total`.
      (tools/check_prometheus.py lints the *exported* text; this rule moves
      the check to the source call site so a bad name fails before any
      bench runs.)

  R2  every `fault::inject("<site>")` site string in src/ is documented in
      docs/robustness.md — chaos plans are written against that inventory,
      so an undocumented site is an untestable failure path.

  R3  every public header under src/serve/ and src/util/ states its
      threading contract: the leading comment block (before the first line
      of code) must mention threading (/thread/i). Concurrency is these
      layers' API surface; a header silent about it is underspecified.

  R4  no naked standard synchronization primitives (std::mutex,
      std::lock_guard, std::unique_lock, std::scoped_lock, std::shared_mutex,
      std::condition_variable[_any]) anywhere in src/ outside
      src/util/mutex.hpp — the annotated util::Mutex/MutexLock/CondVar
      wrappers are the only lockable types Clang's thread-safety analysis
      can see, so a naked primitive is an unanalyzed critical section
      (docs/static-analysis.md).

  R5  ISA-specific code only in src/h5lite/h5file.cpp: intrinsic headers
      (<immintrin.h>, <x86intrin.h>, <*mmintrin.h>, <arm_neon.h>,
      <arm_acle.h>), CPU feature probes (__builtin_cpu_supports / _is /
      _init) and per-function target attributes (__attribute__((target(,
      [[gnu::target(). Runtime SIMD dispatch is parked (ROADMAP); the CRC-32
      PCLMUL fold is its one measured exception, and this rule keeps it from
      spreading unreviewed. Checked across src/, bench/, examples/, tests/.

  R6  no OpenMP runtime: no `#pragma omp` other than `#pragma omp simd`
      (a vectorization hint compiled with -fopenmp-simd, which starts no
      threads), no <omp.h>, no omp_*( call and no _OPENMP guard. Threads
      come only from util::ThreadPool, mapred::Engine and the dist rank
      threads. Checked across src/, bench/, examples/, tests/; perfbench/
      is not checked, as it owns its own thread-budget check.

`--self-test` copies a minimal tree into a tempdir, seeds one violation per
rule, and asserts the linter exits nonzero having caught all six — CI runs
this before the real lint so a silently-broken rule cannot pass the tree.

Exit status: 0 clean, 1 on any violation (all violations are printed),
2 on usage/IO errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
# Registry call sites: .counter("name" / .gauge("name" / .histogram("name".
REGISTRY_CALL_RE = re.compile(r"\.\s*(counter|gauge|histogram)\s*\(\s*\"([^\"]*)\"")
FAULT_SITE_RE = re.compile(r"fault::inject\s*\(\s*\"([^\"]*)\"")
NAKED_SYNC_RE = re.compile(
    r"std::(mutex|lock_guard|unique_lock|scoped_lock|shared_mutex|"
    r"condition_variable(?:_any)?)\b"
)
THREAD_RE = re.compile(r"thread", re.IGNORECASE)
INCLUDE_RE = re.compile(r"^\s*#\s*include\b")
ISA_HEADER_RE = re.compile(
    r"[<\"]\s*(immintrin\.h|x86intrin\.h|\w*mmintrin\.h|arm_neon\.h|arm_acle\.h)\s*[>\"]"
)
ISA_CODE_RE = re.compile(
    r"(__builtin_cpu_(?:supports|is|init)\b|"
    r"__attribute__\s*\(\(\s*target(?:_clones)?\s*\(|"
    r"\bgnu::target(?:_clones)?\s*\()"
)
ISA_ALLOWED = os.path.join("src", "h5lite", "h5file.cpp")
OMP_HEADER_RE = re.compile(r"[<\"]\s*omp\.h\s*[>\"]")
# Any omp pragma but simd (matched to the end of the line, for the report),
# an omp_*( runtime call, or an _OPENMP guard.
OMP_CODE_RE = re.compile(r"^\s*#\s*pragma\s+omp\b(?!\s+simd\b).*|\bomp_\w+\s*\(|\b_OPENMP\b")

CPP_EXTS = (".cpp", ".hpp", ".h", ".cc")


def iter_files(root: str, subdirs, exts=CPP_EXTS):
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blank out //-comments, /* */-comments and (unless keep_strings)
    string/char literals, preserving line structure so reported line
    numbers stay true."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:end]))
            i = end
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            end = min(j + 1, n)
            out.append(text[i:end] if keep_strings else " ")
            i = end
        else:
            out.append(c)
            i += 1
    return "".join(out)


def leading_comment_block(text: str) -> str:
    """The header's doc block: every line up to the first non-comment,
    non-blank line (the same region a human reads to learn the contract)."""
    lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped == "" or stripped.startswith("//"):
            lines.append(line)
        else:
            break
    return "\n".join(lines)


def rel(root: str, path: str) -> str:
    return os.path.relpath(path, root)


def check_r1_metric_names(root: str):
    """R1: Prometheus charset at every Registry call site; counters _total."""
    violations = []
    for path in iter_files(root, ("src", "bench", "examples")):
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        for lineno, line in enumerate(text.splitlines(), 1):
            for kind, name in REGISTRY_CALL_RE.findall(line):
                if not METRIC_NAME_RE.match(name):
                    violations.append(
                        f"R1 {rel(root, path)}:{lineno}: {kind} name '{name}' "
                        f"is not a valid Prometheus metric name"
                    )
                elif kind == "counter" and not name.endswith("_total"):
                    violations.append(
                        f"R1 {rel(root, path)}:{lineno}: counter name '{name}' "
                        f"must end in '_total'"
                    )
    return violations


def check_r2_fault_sites(root: str):
    """R2: every fault::inject site string in src/ appears in robustness.md."""
    violations = []
    doc_path = os.path.join(root, "docs", "robustness.md")
    try:
        with open(doc_path, encoding="utf-8", errors="replace") as f:
            doc = f.read()
    except OSError:
        return [f"R2 docs/robustness.md: missing (fault-site inventory lives here)"]
    for path in iter_files(root, ("src",)):
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        for lineno, line in enumerate(text.splitlines(), 1):
            for site in FAULT_SITE_RE.findall(line):
                if site not in doc:
                    violations.append(
                        f"R2 {rel(root, path)}:{lineno}: fault site '{site}' "
                        f"is not documented in docs/robustness.md"
                    )
    return violations


def check_r3_threading_contracts(root: str):
    """R3: serve/ and util/ public headers open with a threading contract."""
    violations = []
    for path in iter_files(root, (os.path.join("src", "serve"), os.path.join("src", "util")),
                           exts=(".hpp", ".h")):
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        if not THREAD_RE.search(leading_comment_block(text)):
            violations.append(
                f"R3 {rel(root, path)}:1: leading comment block states no "
                f"threading contract (must mention thread safety / affinity)"
            )
    return violations


def check_r4_naked_primitives(root: str):
    """R4: only src/util/mutex.hpp may name std synchronization primitives."""
    allowed = {os.path.join("src", "util", "mutex.hpp")}
    violations = []
    for path in iter_files(root, ("src",)):
        if rel(root, path) in allowed:
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            text = strip_comments_and_strings(f.read())
        for lineno, line in enumerate(text.splitlines(), 1):
            m = NAKED_SYNC_RE.search(line)
            if m:
                violations.append(
                    f"R4 {rel(root, path)}:{lineno}: naked std::{m.group(1)} — "
                    f"use util::Mutex/MutexLock/CondVar (src/util/mutex.hpp) so "
                    f"the thread-safety analysis sees the critical section"
                )
    return violations


def code_matches(root: str, header_re, code_re, skip: str = ""):
    """Yield (path, lineno, match) for every #include whose quoted name
    matches header_re and every code line matching code_re, over src/,
    bench/, examples/ and tests/ (except `skip`). Includes keep their quoted
    name; code is checked with string literals blanked, and both with
    comments blanked."""
    for path in iter_files(root, ("src", "bench", "examples", "tests")):
        if rel(root, path) == skip:
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        with_strings = strip_comments_and_strings(text, keep_strings=True).splitlines()
        code = strip_comments_and_strings(text).splitlines()
        for lineno, (line, bare) in enumerate(zip(with_strings, code), 1):
            m = header_re.search(line) if INCLUDE_RE.match(bare) else None
            m = m or code_re.search(bare)
            if m:
                yield path, lineno, m


def check_r5_isa_code(root: str):
    """R5: intrinsic headers, CPU probes and target attributes stay in the
    one file that dispatches at run time (src/h5lite/h5file.cpp)."""
    return [
        f"R5 {rel(root, path)}:{lineno}: ISA-specific code "
        f"'{m.group(0).strip()}' outside {ISA_ALLOWED} — runtime SIMD "
        f"dispatch is parked (ROADMAP); CRC-32 is its one exception"
        for path, lineno, m in code_matches(root, ISA_HEADER_RE, ISA_CODE_RE, skip=ISA_ALLOWED)
    ]


def check_r6_openmp_runtime(root: str):
    """R6: no OpenMP runtime; `#pragma omp simd` is the one allowed form."""
    return [
        f"R6 {rel(root, path)}:{lineno}: OpenMP runtime use "
        f"'{m.group(0).strip()}' — threads come from util::ThreadPool, "
        f"mapred::Engine and rank threads; only `#pragma omp simd` is allowed"
        for path, lineno, m in code_matches(root, OMP_HEADER_RE, OMP_CODE_RE)
    ]


def run_lint(root: str) -> int:
    violations = []
    violations += check_r1_metric_names(root)
    violations += check_r2_fault_sites(root)
    violations += check_r3_threading_contracts(root)
    violations += check_r4_naked_primitives(root)
    violations += check_r5_isa_code(root)
    violations += check_r6_openmp_runtime(root)
    for v in violations:
        print(v)
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)")
        return 1
    print("lint_invariants: clean")
    return 0


def self_test() -> int:
    """Seed one violation per rule in a scratch tree; all six must fire."""
    with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
        os.makedirs(os.path.join(tmp, "src", "serve"))
        os.makedirs(os.path.join(tmp, "src", "util"))
        os.makedirs(os.path.join(tmp, "src", "h5lite"))
        os.makedirs(os.path.join(tmp, "docs"))
        with open(os.path.join(tmp, "docs", "robustness.md"), "w") as f:
            f.write("# Robustness\n\nFault sites: `disk.read`.\n")
        # R1: counter missing _total; R2: undocumented fault site.
        with open(os.path.join(tmp, "src", "serve", "bad_metrics.cpp"), "w") as f:
            f.write(
                'void wire(R& r) {\n'
                '  r.counter("is2_requests", {}, "no _total suffix");\n'
                '  util::fault::inject("cache.undocumented", 0);\n'
                '}\n'
            )
        # R3: header with no threading contract. R4 control: the std::mutex
        # here is inside a comment and a string, so it must NOT fire.
        with open(os.path.join(tmp, "src", "util", "silent.hpp"), "w") as f:
            f.write(
                "// A header that says nothing about its locking story.\n"
                "#pragma once\n"
                "// std::mutex in a comment is fine\n"
                'inline const char* kDoc = "std::lock_guard in a string is fine";\n'
            )
        # R4: a real naked primitive.
        with open(os.path.join(tmp, "src", "serve", "naked.cpp"), "w") as f:
            f.write("#include <mutex>\nstd::mutex g_lock;\n")
        # R5: an intrinsic header outside the allowed file, then a decoy
        # naming all three forms only in comments and strings, then the
        # allowed file itself using them for real.
        with open(os.path.join(tmp, "src", "serve", "simd.cpp"), "w") as f:
            f.write("#include <immintrin.h>\n")
        with open(os.path.join(tmp, "src", "util", "decoy.cpp"), "w") as f:
            f.write(
                "// #include <immintrin.h> and __builtin_cpu_supports(\"avx2\")\n"
                'const char* kNote = "__attribute__((target(\\"avx2\\")))";\n'
            )
        with open(os.path.join(tmp, "src", "h5lite", "h5file.cpp"), "w") as f:
            f.write(
                "#include <immintrin.h>\n"
                '__attribute__((target("pclmul,sse4.1"))) int fold();\n'
                'bool ok = __builtin_cpu_supports("pclmul");\n'
            )
        # R6: a parallel region in tests/, then a decoy with the allowed simd
        # hint and the runtime's names only in comments and strings.
        os.makedirs(os.path.join(tmp, "tests"))
        with open(os.path.join(tmp, "tests", "test_threads.cpp"), "w") as f:
            f.write(
                "void f(int* v) {\n"
                "#pragma omp parallel for\n"
                "  for (int i = 0; i < 8; ++i) v[i] = i;\n"
                "}\n"
            )
        with open(os.path.join(tmp, "src", "util", "simd_decoy.cpp"), "w") as f:
            f.write(
                "// omp_get_max_threads() and #ifdef _OPENMP in a comment\n"
                'const char* kNote = "#include <omp.h>";\n'
                "void g(float* v) {\n"
                "#pragma omp simd\n"
                "  for (int i = 0; i < 8; ++i) v[i] = 0.0f;\n"
                "}\n"
            )

        found = []
        found += check_r1_metric_names(tmp)
        found += check_r2_fault_sites(tmp)
        found += check_r3_threading_contracts(tmp)
        found += check_r4_naked_primitives(tmp)
        found += check_r5_isa_code(tmp)
        found += check_r6_openmp_runtime(tmp)
        for v in found:
            print(f"  seeded: {v}")

        fired = {v.split()[0] for v in found}
        missing = {"R1", "R2", "R3", "R4", "R5", "R6"} - fired
        if missing:
            print(f"self-test FAILED: rule(s) did not fire: {sorted(missing)}")
            return 1
        r4_hits = [v for v in found if v.startswith("R4")]
        if any("silent.hpp" in v for v in r4_hits):
            print("self-test FAILED: R4 fired on a comment/string occurrence")
            return 1
        r5_files = {v.split()[1].rsplit(":", 2)[0] for v in found if v.startswith("R5")}
        if r5_files != {os.path.join("src", "serve", "simd.cpp")}:
            print("self-test FAILED: R5 fired on a comment/string or the allowed file")
            return 1
        r6_files = {v.split()[1].rsplit(":", 2)[0] for v in found if v.startswith("R6")}
        if r6_files != {os.path.join("tests", "test_threads.cpp")}:
            print("self-test FAILED: R6 fired on `omp simd`, a comment or a string")
            return 1
        if run_lint_exit_nonzero(tmp) != 1:
            print("self-test FAILED: lint on a seeded tree must exit 1")
            return 1
        print("self-test passed: every rule fires, comments/strings exempt")
        return 0


def run_lint_exit_nonzero(root: str) -> int:
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_lint(root)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="tree to lint (default: the repo containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="seed one violation per rule and assert detection")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    root = args.root or os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"lint_invariants: no src/ under {root}", file=sys.stderr)
        return 2
    return run_lint(root)


if __name__ == "__main__":
    sys.exit(main())
