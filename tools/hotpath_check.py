#!/usr/bin/env python3
"""GRED_HOT_PATH closure verifier (registered as ctest `lint.hotpath`).

The data plane's contract is "zero allocations, zero locks, zero
blocking in the steady state" (DESIGN.md §13). bench_data_plane proves
the allocation half at runtime for the schedules it happens to run;
this tool proves the whole contract statically, for every path:

  1. Every TU the TU list names is re-compiled (exactly as recorded
     in compile_commands.json, normalized to -O2 -DNDEBUG) with GCC's
     -fcallgraph-info=su,da, which dumps the POST-OPTIMIZATION call
     graph per TU — what the generated code actually calls, after
     inlining, not what the source text mentions.
     -fkeep-inline-functions forces header-inline hot functions (ring
     ops, plan_step, metric recorders) to exist as graph nodes even
     when every call site inlined them.
  2. The src/ tree is scanned for GRED_HOT_PATH / GRED_COLD_PATH
     markers (common/thread_annotations.hpp); markers are resolved to
     graph nodes by qualified name against the c++filt-demangled
     symbols.
  3. BFS from every hot root. Traversal prunes at GRED_COLD_PATH
     boundaries (cold is noinline, so the boundary is a real node) and
     at waived edges (tools/hotpath_waivers.conf). Reaching any banned
     symbol — operator new/malloc, pthread lock/wait, sleep, stdio,
     throwing helpers, static-init guards, or the __indirect_call
     placeholder — is an error, reported with the full call chain and
     call sites. Unrecognized external symbols are also errors: the
     closure must be fully analyzed, not silently truncated.

Operator delete / free are WARNINGS, not errors: releasing memory the
cold path allocated is latency noise, not a new allocation.

A marker that resolves to no graph node is an error too — it means the
analyzed TU set does not cover the annotated function, and the proof
would be vacuous. Markers are collected from all of src/ whatever the
TU list says, so a list that misses a hot root's library fails here,
and one that misses a library the closure calls into fails on the
unrecognized external symbol.

The TU list names the TUs to compile, one absolute path per line, each
a src/ entry of compile_commands.json. CMake writes the hot roots' link
closure to <build>/hotpath_tus.txt.

Waiver file: tools/hotpath_waivers.conf, `root | symbol | callsite |
justification` with regex fields (symbol matches mangled or demangled,
callsite matches the edge's file:line label). A waiver prunes the
whole subtree behind the matched edge, so it must argue why that
subtree is acceptable, not just name it.

Usage:
  hotpath_check.py <repo-root> <compile_commands.json> <tu-list>
                   [--jobs N]
  hotpath_check.py <repo-root> --self-test
Exit 0 clean, 1 errors, 2 usage/setup errors, 77 toolchain missing
(gcc or c++filt not on PATH — ctest SKIP_RETURN_CODE).
"""

import concurrent.futures
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

RE_LINE_COMMENT = re.compile(r"//.*$")
RE_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')

RE_NODE = re.compile(
    r'node:\s*\{\s*title:\s*"([^"]+)"\s*label:\s*"((?:[^"\\]|\\.)*)"'
    r"(\s*shape\s*:\s*ellipse)?\s*\}")
RE_EDGE = re.compile(
    r'edge:\s*\{\s*sourcename:\s*"([^"]+)"\s*targetname:\s*"([^"]+)"'
    r'(?:\s*label:\s*"((?:[^"\\]|\\.)*)")?\s*\}')

RE_MARKER = re.compile(r"\bGRED_(HOT|COLD)_PATH\b")
RE_SCOPE = re.compile(
    r"\b(?:namespace\s+([\w:]+)\s*|namespace\s*(?=\{)|"
    r"(?:class|struct)\s+(?:GRED_\w+(?:\([^)]*\))?\s+)*(\w+)[^;{=()]*)\{")
RE_NAME_BEFORE_PAREN = re.compile(r"([\w:~]+)\s*\($")

# What a hot path must never reach. (pattern, category) pairs tested
# against the mangled symbol and its demangling.
BANNED = [
    (re.compile(r"^_Zn[wa]m$|^_Zn[wa]mRKSt9nothrow_t$|"
                r"^_Zn[wa]mSt11align_val_t"), "allocates"),
    (re.compile(r"^(malloc|calloc|realloc|aligned_alloc|posix_memalign|"
                r"strdup|asprintf)$"), "allocates"),
    (re.compile(r"^__cxa_(allocate_exception|throw|rethrow)$"), "throws"),
    (re.compile(r"^_ZSt\d+__throw_\w+$"), "throws"),
    (re.compile(r"^pthread_(mutex_lock|mutex_timedlock|cond_wait|"
                r"cond_timedwait|rwlock_rdlock|rwlock_wrlock|join|once|"
                r"barrier_wait)$|^sem_wait$|^futex\w*$"), "locks/blocks"),
    (re.compile(r"^__cxa_guard_acquire$"),
     "locks/blocks (static-local init guard)"),
    (re.compile(r"^(sleep|usleep|nanosleep|clock_nanosleep|sched_yield|"
                r"poll|select|epoll_wait)$"), "blocks"),
    (re.compile(r"^(write|read|open|open64|close|fwrite|fread|printf|"
                r"fprintf|vfprintf|__printf_chk|__fprintf_chk|puts|fputs|"
                r"fputc|putchar|fflush|getenv)$"), "does I/O"),
    (re.compile(r"^__indirect_call$"),
     "indirect call (target unprovable)"),
]

# Warnings: reachable deallocation is latency noise, not an allocation.
WARNED = re.compile(r"^_Zd[la]Pv|^free$")

# Known-harmless leaf externals: non-blocking, non-allocating.
ALLOWED = re.compile(
    r"^mem(cpy|move|set|cmp)$|^__mem\w+_chk$|"
    r"^str(len|cmp|ncmp)$|"
    r"^(frexp|ldexp|log|log2|log10|log1p|exp|exp2|expm1|pow|sqrt|cbrt|"
    r"hypot|fmod|remainder|sin|cos|tan|asin|acos|atan|atan2|sinh|cosh|"
    r"tanh|floor|ceil|round|lround|llround|trunc|nearbyint|rint|fabs|"
    r"fma|fmin|fmax|copysign|nextafter)f?$|"
    r"^__isnanf?$|^__isinff?$|^__fpclassify\w*$|^__errno_location$|"
    r"^clock_gettime(64)?$|^gettimeofday$|"
    r"^_ZNSt6chrono3_V212steady_clock3nowEv$|"
    r"^_ZNSt6chrono3_V212system_clock3nowEv$|"
    # std::string's move constructor: extern-template in libstdc++ so
    # it stays an external call, but it is noexcept and steals — never
    # allocates.
    r"^_ZNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEC[12]EOS4_$|"
    r"^abort$|^__assert_fail$|^__stack_chk_fail$|"
    r"^_Unwind_Resume$|"  # runs only once a throw (banned) is in flight
    r"^__tls_get_addr$|"
    r"^__(popcount|clz|ctz|ffs|bswap|udiv|umod|div|mod|mul|float|fix)\w*$")

MARKER_EXEMPT = ("src/common/thread_annotations.hpp",)


def strip_code_line(line, state):
    """One comment/string-stripped line; `state` carries block-comment
    context across lines as a 1-element list."""
    line = RE_STRING.sub('""', line)
    if state[0]:
        end = line.find("*/")
        if end < 0:
            return ""
        line = line[end + 2:]
        state[0] = False
    while True:
        start = line.find("/*")
        if start < 0:
            break
        end = line.find("*/", start + 2)
        if end < 0:
            line = line[:start]
            state[0] = True
            break
        line = line[:start] + line[end + 2:]
    return RE_LINE_COMMENT.sub("", line)


def scan_markers(path: Path, rel: str):
    """Yields (kind, qualified_name, rel, line) for every
    GRED_HOT_PATH / GRED_COLD_PATH marker, tracking namespace/class
    scope textually (one scope-opening declaration per line, which
    clang-format guarantees here)."""
    raw_lines = path.read_text(encoding="utf-8").splitlines()
    state = [False]
    lines = [strip_code_line(l, state) for l in raw_lines]

    out = []
    depth = 0
    scopes = []  # (name, depth_at_open)
    for idx, code in enumerate(lines):
        stripped = code.strip()
        if stripped.startswith("#"):
            continue

        if RE_MARKER.search(code):
            kind = RE_MARKER.search(code).group(1)
            after = code[RE_MARKER.search(code).end():]
            # Pull in continuation lines until the parameter list opens.
            look = idx + 1
            while "(" not in after and look < len(lines) and look < idx + 4:
                after += " " + lines[look]
                look += 1
            head = after[:after.find("(")].rstrip() + "("
            m = RE_NAME_BEFORE_PAREN.search(head)
            if m:
                name = m.group(1)
                qualified = "::".join([s for s, _ in scopes] + [name])
                out.append((kind, qualified, rel, idx + 1))
            else:
                out.append(("BAD", code.strip(), rel, idx + 1))

        sm = RE_SCOPE.search(code)
        if sm:
            name = sm.group(1) or sm.group(2) or "(anonymous namespace)"
            scopes.append((name, depth))
        depth += code.count("{") - code.count("}")
        while scopes and depth <= scopes[-1][1]:
            scopes.pop()
    return out


def collect_markers(root: Path, files=None):
    hot, cold, bad = [], [], []
    paths = files if files is not None else sorted(
        (root / "src").rglob("*"))
    for path in paths:
        if path.suffix not in (".cpp", ".hpp", ".h", ".cc"):
            continue
        rel = path.resolve().as_posix()
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.name
        if rel.startswith(MARKER_EXEMPT):
            continue
        for kind, qualified, mrel, ln in scan_markers(path, rel):
            if kind == "HOT":
                hot.append((qualified, mrel, ln))
            elif kind == "COLD":
                cold.append((qualified, mrel, ln))
            else:
                bad.append((qualified, mrel, ln))
    return hot, cold, bad


def parse_ci(text, nodes, edges):
    """Accumulates one TU's VCG dump into the merged graph. Node keys
    are mangled names with the TU prefix stripped."""
    for m in RE_NODE.finditer(text):
        title, label, ellipse = m.group(1), m.group(2), m.group(3)
        key = title.rsplit(":", 1)[-1]
        if not ellipse:
            # Defined here; remember the definition location (second
            # label line) for reports.
            loc = label.split("\\n")[1] if "\\n" in label else ""
            prev = nodes.get(key)
            if prev is None or not prev:
                nodes[key] = loc
        else:
            nodes.setdefault(key, "")
    for m in RE_EDGE.finditer(text):
        src = m.group(1).rsplit(":", 1)[-1]
        tgt = m.group(2).rsplit(":", 1)[-1]
        label = m.group(3) or ""
        edges.setdefault(src, set()).add((tgt, label))


def demangle_all(keys):
    cxxfilt = shutil.which("c++filt") or shutil.which("llvm-cxxfilt")
    if cxxfilt is None:
        return None
    proc = subprocess.run([cxxfilt], input="\n".join(keys),
                          capture_output=True, text=True)
    demangled = proc.stdout.splitlines()
    if len(demangled) != len(keys):
        return {k: k for k in keys}
    return dict(zip(keys, demangled))


def strip_angles(s: str) -> str:
    out = []
    depth = 0
    for ch in s:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def match_nodes(qualified: str, stripped_by_key: dict) -> set:
    pat = re.compile(r"(?<![\w>])" + re.escape(qualified) + r"\s*\(")
    return {k for k, s in stripped_by_key.items() if pat.search(s)}


class Waiver:
    def __init__(self, root, symbol, callsite, why, line):
        self.root = re.compile(root)
        self.symbol = re.compile(symbol)
        self.callsite = re.compile(callsite)
        self.why = why
        self.line = line
        self.used = False


def load_waivers(path: Path):
    waivers = []
    if not path.is_file():
        return waivers
    for ln, raw in enumerate(path.read_text(encoding="utf-8").splitlines(),
                             start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # Fields are separated by ` | ` (pipe WITH surrounding spaces)
        # so alternation pipes inside the regexes survive.
        parts = [p.strip() for p in re.split(r"\s\|\s", line)]
        if len(parts) != 4 or not parts[3]:
            print(f"hotpath: {path}:{ln}: malformed waiver (need "
                  "`root | symbol | callsite | justification`, "
                  "` | ` separators with spaces)",
                  file=sys.stderr)
            return None
        waivers.append(Waiver(*parts, line=ln))
    return waivers


def analyze(nodes, edges, demangled, hot, cold, waivers):
    """BFS the merged graph from every hot root. Returns
    (errors, warnings) as lists of printable strings."""
    stripped = {k: strip_angles(d) for k, d in demangled.items()}

    unresolved = []
    root_nodes = {}
    for qualified, rel, ln in hot:
        found = match_nodes(qualified, stripped)
        if not found:
            unresolved.append(
                f"{rel}:{ln}: GRED_HOT_PATH '{qualified}' matches no "
                "node in the analyzed call graph — the proof would be "
                "vacuous (is its TU in compile_commands.json?)")
        root_nodes[qualified] = found

    cold_keys = set()
    for qualified, rel, ln in cold:
        found = match_nodes(qualified, stripped)
        if not found:
            unresolved.append(
                f"{rel}:{ln}: GRED_COLD_PATH '{qualified}' matches no "
                "node in the analyzed call graph")
        cold_keys |= found

    errors = list(unresolved)
    warnings = []

    def path_str(chain):
        lines = []
        for key, site in chain:
            where = f"  [{site}]" if site else ""
            lines.append(f"      -> {demangled.get(key, key)}{where}")
        return "\n".join(lines)

    for qualified, starts in sorted(root_nodes.items()):
        visited = set(starts)
        # (key, chain) where chain is [(key, callsite), ...] from root.
        stack = [(s, [(s, "")]) for s in sorted(starts)]
        while stack:
            key, chain = stack.pop()
            for tgt, site in sorted(edges.get(key, ())):
                if tgt in cold_keys:
                    continue
                dem = demangled.get(tgt, tgt)
                waived = False
                for w in waivers:
                    if (w.root.search(qualified)
                            and (w.symbol.search(tgt)
                                 or w.symbol.search(dem))
                            and w.callsite.search(site)):
                        w.used = True
                        waived = True
                        break
                if waived:
                    continue
                banned = next((why for pat, why in BANNED
                               if pat.search(tgt) or pat.search(dem)),
                              None)
                if banned is not None:
                    errors.append(
                        f"  root {qualified}: reaches '{dem}' which "
                        f"{banned}\n{path_str(chain + [(tgt, site)])}")
                    continue
                if WARNED.search(tgt) or WARNED.search(dem):
                    warnings.append(
                        f"  root {qualified}: reaches '{dem}' "
                        f"(deallocation)\n"
                        f"{path_str(chain + [(tgt, site)])}")
                    continue
                if ALLOWED.search(tgt) or ALLOWED.search(dem):
                    continue
                if tgt in visited:
                    continue
                visited.add(tgt)
                if nodes.get(tgt):  # defined somewhere in the graph
                    stack.append((tgt, chain + [(tgt, site)]))
                elif tgt in nodes and tgt in edges:
                    # Defined node whose location line was empty.
                    stack.append((tgt, chain + [(tgt, site)]))
                else:
                    errors.append(
                        f"  root {qualified}: reaches external '{dem}' "
                        "not covered by the analysis — allowlist it, "
                        "waive it, or add its TU\n"
                        f"{path_str(chain + [(tgt, site)])}")
    return errors, warnings


def keep_flags(argv):
    flags = []
    i = 1
    while i < len(argv):
        a = argv[i]
        if re.match(r"^(-I|-isystem|-D|-U|-std=)", a):
            flags.append(a)
            if a in ("-I", "-isystem", "-D", "-U") and i + 1 < len(argv):
                i += 1
                flags.append(argv[i])
        i += 1
    # The analyzed configuration is the release data plane: optimizer
    # on (so cold calls stay out of line and dead guards fold away),
    # asserts and deep invariant checks compiled out.
    flags = [f for f in flags if f not in ("-DGRED_CHECKED=1",
                                           "-DGRED_CHECKED")]
    return flags + ["-O2", "-DNDEBUG"]


CG_FLAGS = ["-fcallgraph-info=su,da", "-fkeep-inline-functions", "-c"]


def compile_tu(gxx, entry, flags, out_path):
    cmd = [gxx] + flags + CG_FLAGS + [entry["file"], "-o", str(out_path)]
    proc = subprocess.run(cmd, cwd=entry.get("directory", "."),
                          capture_output=True, text=True)
    return proc, out_path.with_suffix(".ci")


def run_repo(root: Path, compile_commands: Path, tu_list: Path,
             jobs: int) -> int:
    gxx = shutil.which("g++") or shutil.which("gcc")
    if gxx is None or (shutil.which("c++filt") is None
                       and shutil.which("llvm-cxxfilt") is None):
        print("hotpath: g++ or c++filt not on PATH; skipping")
        return 77
    try:
        entries = json.loads(compile_commands.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"hotpath: cannot read {compile_commands}: {exc}",
              file=sys.stderr)
        return 2

    tus = []
    for entry in entries:
        src = Path(entry["file"])
        if not src.is_absolute():
            src = Path(entry.get("directory", ".")) / src
        try:
            rel = src.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            continue
        if rel.startswith("src/") and src.suffix in (".cpp", ".cc"):
            entry = dict(entry)
            entry["file"] = str(src.resolve())
            tus.append((rel, entry))
    try:
        wanted = {str(Path(line.strip()).resolve()) for line in
                  tu_list.read_text(encoding="utf-8").splitlines()
                  if line.strip()}
    except OSError as exc:
        print(f"hotpath: cannot read {tu_list}: {exc}", file=sys.stderr)
        return 2
    missing = wanted - {entry["file"] for _, entry in tus}
    if missing:
        print(f"hotpath: {tu_list} lists TUs that are not src/ TUs of "
              f"{compile_commands}: {', '.join(sorted(missing))}",
              file=sys.stderr)
        return 2
    tus = [(rel, entry) for rel, entry in tus if entry["file"] in wanted]
    if not tus:
        print(f"hotpath: {tu_list} names no TU", file=sys.stderr)
        return 2

    hot, cold, bad = collect_markers(root)
    for qualified, rel, ln in bad:
        print(f"hotpath: {rel}:{ln}: cannot parse function name after "
              f"marker: {qualified}", file=sys.stderr)
    if bad:
        return 2
    if not hot:
        print("hotpath: no GRED_HOT_PATH markers found in src/",
              file=sys.stderr)
        return 2

    waivers = load_waivers(root / "tools" / "hotpath_waivers.conf")
    if waivers is None:
        return 2

    nodes, edges = {}, {}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="gred-hotpath-") as tmp:
        with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
            futs = {}
            for i, (rel, entry) in enumerate(tus):
                argv = entry.get("arguments") or shlex.split(
                    entry["command"])
                flags = keep_flags(argv)
                out = Path(tmp) / f"tu{i}.o"
                futs[pool.submit(compile_tu, gxx, entry, flags, out)] = rel
            for fut in concurrent.futures.as_completed(futs):
                rel = futs[fut]
                proc, ci = fut.result()
                if proc.returncode != 0 or not ci.is_file():
                    failed += 1
                    print(f"hotpath: recompile failed for {rel}:",
                          file=sys.stderr)
                    sys.stderr.write(proc.stderr[:4000])
                    continue
                parse_ci(ci.read_text(encoding="utf-8", errors="replace"),
                         nodes, edges)
    if failed:
        return 2

    demangled = demangle_all(sorted(nodes.keys()))
    if demangled is None:
        print("hotpath: c++filt disappeared mid-run", file=sys.stderr)
        return 77

    errors, warnings = analyze(nodes, edges, demangled, hot, cold, waivers)
    for w in warnings:
        print(f"hotpath: WARNING\n{w}")
    for e in errors:
        print(f"hotpath: ERROR\n{e}")
    for w in waivers:
        if not w.used:
            print(f"hotpath: WARNING unused waiver at "
                  f"hotpath_waivers.conf:{w.line} — delete it")
    print(f"hotpath: {len(tus)} TUs, {len(nodes)} symbols, "
          f"{len(hot)} hot roots, {len(cold)} cold boundaries, "
          f"{len(errors)} error(s), {len(warnings)} warning(s)")
    return 1 if errors else 0


RE_EXPECT = re.compile(r"HOTPATH-EXPECT:\s*(clean|error:(.*))$", re.M)


def self_test(root: Path) -> int:
    gxx = shutil.which("g++") or shutil.which("gcc")
    if gxx is None or (shutil.which("c++filt") is None
                       and shutil.which("llvm-cxxfilt") is None):
        print("hotpath: g++ or c++filt not on PATH; skipping self-test")
        return 77
    fixture_dir = root / "tools" / "tests" / "fixtures" / "hotpath"
    fixtures = sorted(fixture_dir.glob("*.cpp"))
    if not fixtures:
        print(f"hotpath --self-test: no fixtures in {fixture_dir}",
              file=sys.stderr)
        return 2

    failures = 0
    with tempfile.TemporaryDirectory(prefix="gred-hotpath-st-") as tmp:
        for path in fixtures:
            text = path.read_text(encoding="utf-8")
            expects = [e[1].strip() for e in RE_EXPECT.findall(text)
                       if e[0] != "clean"]
            expect_clean = not expects

            entry = {"file": str(path), "directory": tmp}
            flags = [f"-I{root / 'src'}", "-O2", "-DNDEBUG"]
            out = Path(tmp) / (path.stem + ".o")
            proc, ci = compile_tu(gxx, entry, flags, out)
            if proc.returncode != 0:
                failures += 1
                print(f"  FAIL {path.name}: fixture does not compile:")
                sys.stderr.write(proc.stderr[:2000])
                continue

            nodes, edges = {}, {}
            parse_ci(ci.read_text(encoding="utf-8", errors="replace"),
                     nodes, edges)
            hot, cold, bad = collect_markers(root, files=[path])
            demangled = demangle_all(sorted(nodes.keys()))
            errors, _ = analyze(nodes, edges, demangled, hot, cold, [])

            if expect_clean:
                ok = not errors
                detail = f"{len(errors)} unexpected error(s)"
            else:
                missing = [e for e in expects
                           if not any(re.search(e, err) for err in errors)]
                ok = not missing and errors
                detail = f"missing {missing}" if missing else "no errors"
            if ok:
                print(f"  PASS {path.name}: "
                      f"{'clean' if expect_clean else expects}")
            else:
                failures += 1
                print(f"  FAIL {path.name}: {detail}")
                for e in errors:
                    print(f"    got: {e.splitlines()[0].strip()}")
    print(f"hotpath self-test: {len(fixtures)} fixtures, "
          f"{failures} failure(s)")
    return 1 if failures else 0


def main(argv):
    args = list(argv[1:])
    jobs = os.cpu_count() or 4
    if "--jobs" in args:
        i = args.index("--jobs")
        jobs = int(args[i + 1])
        del args[i:i + 2]
    if "--self-test" in args:
        args.remove("--self-test")
        if len(args) != 1:
            print(__doc__, file=sys.stderr)
            return 2
        return self_test(Path(args[0]))
    if len(args) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    return run_repo(Path(args[0]), Path(args[1]), Path(args[2]), jobs)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
