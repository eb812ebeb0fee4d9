#!/usr/bin/env python3
"""Custom lint gate for the GRED sources (registered as ctest `lint.custom`).

Project-specific rules that clang-tidy does not cover:

  rand           naked rand()/srand() — all randomness must flow through
                 gred::Rng so experiments stay reproducible.
  cout           std::cout/std::cerr/printf in library code (src/): the
                 library reports through gred::log or typed errors;
                 stdout belongs to the example/bench binaries.
                 (src/common/log.cpp and src/check — the reporting
                 layers themselves — are exempt.)
  pragma-once    every header must open with #pragma once.
  catch-value    `catch (SomeType e)` slices; catch by (const) reference.

Concurrency rules (DESIGN.md §13):

  memory-order   an explicit std::memory_order_* argument in src/ needs
                 a justification comment — `relaxed:`, `acquire:`,
                 `release:`, `acq_rel:`, `seq_cst:`, or `consume:` —
                 on the same line or within the 8 lines above. Default
                 (seq_cst) operations need no comment: the rule exists
                 because WEAKENING an order is the decision that needs
                 a recorded argument.
  sleep          std::this_thread::sleep_for/sleep_until, sleep(),
                 usleep(), nanosleep() in src/ — library code never
                 sleeps; polling loops yield, blocking waits use
                 gred::CondVar.
  volatile-sync  `volatile` in src/ — it is not a synchronization
                 primitive in C++; use std::atomic.
  mutable-global namespace-scope mutable state (the repo's g_* naming)
                 in src/ must be std::atomic, GRED_GUARDED_BY a
                 capability, thread_local, or const/constexpr.
  cold-doc       every GRED_COLD_PATH use needs a `cold:` justification
                 comment (same line or the 3 lines above) naming why
                 the boundary is off the hot path.
  tsa-doc        every GRED_NO_THREAD_SAFETY_ANALYSIS use needs a
                 `tsa:` comment explaining what the analysis cannot
                 see.

Repository-wide rule:

  unset-option   a data member of a src/ struct named *Options or
                 RetryPolicy that no file under src/, bench/,
                 examples/, perfbench/, fuzz/ or tests/ assigns by name
                 (`.field =`, designated initializers included). A knob
                 nothing sets is a constant: name it as one, and delete
                 the code only another value would reach.

Usage: lint.py <repo-root> [--list-rules] [--self-test]
  --self-test lints tools/tests/fixtures/lint/ and verifies each
  fixture produces exactly the findings its EXPECT comments declare.
Exit status 0 when clean, 1 with findings (one `path:line: [rule]` per
line), 2 on usage errors.
"""

import re
import sys
from pathlib import Path

RE_RAND = re.compile(r"(?<![\w:.])s?rand\s*\(")
RE_COUT = re.compile(r"(?<![\w:])std::c(out|err)\b|(?<![\w:.>])printf\s*\(")
RE_CATCH_VALUE = re.compile(r"catch\s*\(\s*(?:const\s+)?(?!\.\.\.)[\w:<>]+\s+\w+\s*\)")
RE_LINE_COMMENT = re.compile(r"//.*$")
RE_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')

RE_MEMORY_ORDER = re.compile(r"\bmemory_order(_|::)\w+")
RE_ORDER_JUSTIFICATION = re.compile(
    r"\b(relaxed|acquire|release|acq_rel|seq_cst|consume)\s*:", re.IGNORECASE)
RE_SLEEP = re.compile(
    r"std::this_thread::sleep_(for|until)|(?<![\w:.])(sleep|usleep|nanosleep)\s*\(")
RE_VOLATILE = re.compile(r"(?<!\w)volatile(?!\w)")
# Namespace-scope mutable state uses the g_ prefix by repo convention;
# thread-locals use t_.
RE_GLOBAL_DEF = re.compile(r"^[\w:<>,*&\s]*?[\s*&]g_\w+\s*(=|\{|;)")
RE_GLOBAL_SAFE = re.compile(
    r"std::atomic|GRED_GUARDED_BY|thread_local|\bconstexpr\b|\bconst\b")
RE_COLD = re.compile(r"\bGRED_COLD_PATH\b")
RE_COLD_JUSTIFICATION = re.compile(r"\bcold\s*:", re.IGNORECASE)
RE_TSA = re.compile(r"\bGRED_NO_THREAD_SAFETY_ANALYSIS\b")
RE_TSA_JUSTIFICATION = re.compile(r"\btsa\s*:", re.IGNORECASE)

# How far above a memory_order use its justification comment may sit.
# Wide enough for one comment to cover a slot-merge loop; narrow enough
# that the comment is still next to the code it argues about.
ORDER_WINDOW = 8
COLD_WINDOW = 3

# Library code that is allowed to write to stdio: the logging layer and
# the invariant reporters (their whole job is to print), and the
# benchmark harness's table printer.
COUT_EXEMPT = ("src/common/log", "src/check/", "src/common/table")
# The macro definitions themselves.
ANNOTATION_HEADER = "src/common/thread_annotations.hpp"

# unset-option: the structs it checks, what counts as assigning a
# field, and the statements of a struct body that declare no field.
RE_OPTION_STRUCT = re.compile(r"\bstruct\s+(\w*Options|RetryPolicy)\s*\{")
RE_ASSIGNED = re.compile(r"\.(\w+)\s*=(?!=)")
RE_NOT_FIELD = re.compile(
    r"^(using|static|friend|typedef|enum|struct|class|union|template)\b"
    r"|\boperator\b")
RE_ACCESS = re.compile(r"^(public|protected|private)\s*:\s*")
RE_FUNCTION_HEAD = re.compile(r"\)[\s\w]*$")
RE_DECLARED_NAME = re.compile(r"[\s*&>](\w+)\s*(\[[^\]]*\])?$")
ASSIGNER_DIRS = ("src", "bench", "examples", "perfbench", "fuzz", "tests")
LINTED_DIRS = ("src", "fuzz", "tests", "bench", "examples")
CXX_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")

RULES = ("rand cout pragma-once catch-value memory-order sleep "
         "volatile-sync mutable-global cold-doc tsa-doc unset-option")


def strip_noise(line: str) -> str:
    """Removes string literals and // comments so rules match code only."""
    line = RE_STRING.sub('""', line)
    return RE_LINE_COMMENT.sub("", line)


def comment_of(raw_line: str) -> str:
    """The // comment text of a raw line ('' when none)."""
    m = RE_LINE_COMMENT.search(RE_STRING.sub('""', raw_line))
    return m.group(0) if m else ""


def has_justification(lines, idx, window, pattern) -> bool:
    """True when `pattern` appears in a comment on lines[idx] or within
    `window` lines above it."""
    lo = max(0, idx - window)
    for raw in lines[lo:idx + 1]:
        if pattern.search(comment_of(raw)):
            return True
    return False


def code_lines(lines):
    """Yields (line number, code) with string literals and // and /* */
    comments removed; a line wholly inside a block comment yields ''."""
    in_block_comment = False
    for ln, line in enumerate(lines, start=1):
        # Cheap block-comment tracking (no nesting, like C++).
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                yield ln, ""
                continue
            line = line[end + 2:]
            in_block_comment = False
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + line[end + 2:]
        yield ln, strip_noise(line)


def lint_file(rel: str, text: str, findings: list) -> None:
    lines = text.splitlines()

    is_header = rel.endswith((".hpp", ".h"))
    if is_header and "#pragma once" not in text:
        findings.append((rel, 1, "pragma-once", "header lacks #pragma once"))

    lib_code = rel.startswith("src/") and not rel.startswith(COUT_EXEMPT)
    src_code = rel.startswith("src/")

    for ln, code in code_lines(lines):
        if not code.strip():
            continue

        if RE_RAND.search(code):
            findings.append((rel, ln, "rand",
                             "naked rand()/srand(); use gred::Rng"))
        if lib_code and RE_COUT.search(code):
            findings.append((rel, ln, "cout",
                             "stdio in library code; use gred::log or "
                             "return a typed error"))
        if RE_CATCH_VALUE.search(code):
            findings.append((rel, ln, "catch-value",
                             "catch by value slices; catch by "
                             "(const) reference"))

        if not src_code:
            continue

        if RE_MEMORY_ORDER.search(code) and not has_justification(
                lines, ln - 1, ORDER_WINDOW, RE_ORDER_JUSTIFICATION):
            findings.append((rel, ln, "memory-order",
                             "explicit memory order without a "
                             "`relaxed:`/`acquire:`/... justification "
                             "comment nearby (DESIGN.md §13)"))
        if RE_SLEEP.search(code):
            findings.append((rel, ln, "sleep",
                             "library code never sleeps; yield in poll "
                             "loops, gred::CondVar for blocking waits"))
        if RE_VOLATILE.search(code):
            findings.append((rel, ln, "volatile-sync",
                             "volatile is not a synchronization "
                             "primitive; use std::atomic"))
        if RE_GLOBAL_DEF.search(code) and not RE_GLOBAL_SAFE.search(code):
            findings.append((rel, ln, "mutable-global",
                             "mutable global without a concurrency "
                             "story: make it std::atomic, guard it "
                             "with a capability, or const it"))
        if rel != ANNOTATION_HEADER:
            if RE_COLD.search(code) and not has_justification(
                    lines, ln - 1, COLD_WINDOW, RE_COLD_JUSTIFICATION):
                findings.append((rel, ln, "cold-doc",
                                 "GRED_COLD_PATH without a `cold:` "
                                 "justification comment"))
            if RE_TSA.search(code) and not has_justification(
                    lines, ln - 1, COLD_WINDOW, RE_TSA_JUSTIFICATION):
                findings.append((rel, ln, "tsa-doc",
                                 "GRED_NO_THREAD_SAFETY_ANALYSIS without "
                                 "a `tsa:` justification comment"))


def option_fields(code):
    """(struct, field, line) for each data member of every *Options /
    RetryPolicy struct in `code`, a list of (line number, code) pairs.
    Member functions, nested types and aliases are not fields."""
    chars = [(c, ln) for ln, text in code for c in text + "\n"]
    fields = []
    text = "".join(c for c, _ in chars)
    for m in RE_OPTION_STRUCT.finditer(text):
        struct = m.group(1)
        depth = 1
        stmt, stmt_line = "", 0
        for c, ln in chars[m.end():]:
            if c == "{":
                depth += 1
                continue
            if c == "}":
                depth -= 1
                if depth == 0:
                    break
                if depth == 1 and RE_FUNCTION_HEAD.search(stmt.strip()):
                    stmt = ""  # end of an inline member function body
                continue
            if depth > 1:
                continue
            if c != ";":
                if not stmt.strip():
                    stmt_line = ln
                stmt += c
                continue
            decl = RE_ACCESS.sub("", " ".join(stmt.split()))
            stmt = ""
            if RE_NOT_FIELD.search(decl):
                continue
            decl = re.split(r"(?<![=!<>])=(?!=)", decl, maxsplit=1)[0]
            name = RE_DECLARED_NAME.search(" " + decl.strip())
            if name and not RE_FUNCTION_HEAD.search(decl.strip()):
                fields.append((struct, name.group(1), stmt_line))
    return fields


def unset_options(struct_files, assigner_files, findings: list) -> None:
    """unset-option over `struct_files` ((rel, code) pairs, src/ only):
    flags every option field no file of `assigner_files` (code lists)
    assigns by name."""
    assigned = set()
    for code in assigner_files:
        assigned.update(RE_ASSIGNED.findall("\n".join(t for _, t in code)))
    for rel, code in struct_files:
        if not rel.startswith("src/"):
            continue
        for struct, field, ln in option_fields(code):
            if field not in assigned:
                findings.append((rel, ln, "unset-option",
                                 f"{struct}::{field} is assigned by no "
                                 "file: make it a named constant"))


RE_EXPECT = re.compile(r"EXPECT-LINT:\s*([\w-]+)")


def self_test(root: Path) -> int:
    """Lints each fixture under tools/tests/fixtures/lint/, comparing
    the produced rule set per file against its EXPECT-LINT comments."""
    fixture_dir = root / "tools" / "tests" / "fixtures" / "lint"
    fixtures = sorted(fixture_dir.glob("*.cpp")) + sorted(
        fixture_dir.glob("*.hpp"))
    if not fixtures:
        print(f"lint.py --self-test: no fixtures in {fixture_dir}",
              file=sys.stderr)
        return 2

    failures = 0
    for path in fixtures:
        text = path.read_text(encoding="utf-8")
        expected = sorted(RE_EXPECT.findall(text))
        findings = []
        # Fixtures are linted as if they lived in src/ so the
        # src-only rules apply; unset-option counts the fixture's own
        # assignments only.
        rel = "src/" + path.name
        lint_file(rel, text, findings)
        code = list(code_lines(text.splitlines()))
        unset_options([(rel, code)], [code], findings)
        got = sorted(rule for _, _, rule, _ in findings)
        if got == expected:
            print(f"  PASS {path.name}: {expected or ['clean']}")
        else:
            failures += 1
            print(f"  FAIL {path.name}: expected {expected}, got {got}")
            for relf, ln, rule, msg in findings:
                print(f"    {relf}:{ln}: [{rule}] {msg}")
    print(f"lint self-test: {len(fixtures)} fixtures, {failures} failure(s)")
    return 1 if failures else 0


def main(argv):
    if "--list-rules" in argv:
        print(RULES)
        return 0
    args = [a for a in argv[1:] if a != "--self-test"]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(args[0])
    if not root.is_dir():
        print(f"lint.py: not a directory: {root}", file=sys.stderr)
        return 2
    if "--self-test" in argv:
        return self_test(root)

    findings = []
    scanned = 0
    struct_files, assigner_files = [], []
    for sub in ASSIGNER_DIRS:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in CXX_SUFFIXES:
                continue
            rel = path.relative_to(root).as_posix()
            try:
                text = path.read_text(encoding="utf-8")
            except (UnicodeDecodeError, OSError) as exc:
                findings.append((rel, 1, "io",
                                 f"unreadable source file: {exc}"))
                continue
            if sub in LINTED_DIRS:
                scanned += 1
                lint_file(rel, text, findings)
            code = list(code_lines(text.splitlines()))
            assigner_files.append(code)
            struct_files.append((rel, code))
    unset_options(struct_files, assigner_files, findings)

    for rel, ln, rule, msg in findings:
        print(f"{rel}:{ln}: [{rule}] {msg}")
    summary = f"lint: {scanned} files scanned, {len(findings)} finding(s)"
    print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
