#!/usr/bin/env python3
"""Repo-invariant linter for the TRACER codebase.

Enforces, per file and across files, the conventions that neither the
compiler nor clang-tidy guard out of the box. One rule per invariant; the
RULES table at the bottom binds each name to its check.

  no-bare-assert         TRACER_CHECK_* instead of assert(); <cassert> and
                         <assert.h> are banned includes.
  no-using-namespace     `using namespace` is forbidden in headers, and
                         `using namespace std` everywhere.
  include-hygiene        Project headers are included as "subdir/header.h":
                         quoted includes are slash-qualified, never traverse
                         with "..", and project subdirs never use <angle>
                         form.
  header-guard           Headers under src/ use the canonical
                         TRACER_<PATH>_H_ guard.
  no-raw-io              Library code under src/ logs through
                         common/logging.h, not std::cerr/cout/clog or the
                         printf family (snprintf into a buffer is fine).
                         Allowlisted: the logging sink (common/logging.cc)
                         and the check-failure path (common/macros.h).
  no-raw-sync            std:: synchronization vocabulary (mutex,
                         lock_guard, condition_variable, ...) appears under
                         src/ only in common/mutex.h, the annotated wrapper
                         layer, so Clang Thread Safety Analysis sees every
                         lock in the tree.
  unchecked-status       A call to a Status-returning function consumes the
                         result. A bare statement is a finding, and so is a
                         `(void)` cast, which silently defeats [[nodiscard]]:
                         intentional drops use TRACER_IGNORE_STATUS(expr) so
                         they stay greppable. Covers examples/*.cpp too.
  include-cycle          The quoted-include graph across src/ is acyclic.
  fault-point-registry   Every TRACER_FAULT_POINT("p") names an entry of
                         src/fault/fault_points.h, mirroring the runtime
                         validation in FaultRegistry::Configure; every entry
                         is used (a dead entry is a stale contract); every
                         entry is a lowercase <subsystem>.<operation> name,
                         the namespace spans use too.
  fault-point-exercised  Every registered point appears in some tests/*.cc
                         file. Chaos specs embed names mid-string
                         ("dist.send:0.02:0,..."), so the match is a plain
                         substring. An untested point is dead chaos surface.
  metric-unique          Each metric name passed to GetOrCreate* under src/
                         is registered at exactly one call site (handles are
                         cached in function-local statics; a second site is
                         a copy/paste fork of that cache).
  obs-naming             Metric names under src/ match tracer_[a-z0-9_]+;
                         span names (TRACER_SPAN / RecordSpan) are lowercase
                         <subsystem>.<operation>, each opened at one site.

Usage:
  tools/lint.py --root <repo-root>   # ctest -R lint
  tools/lint.py --self-test          # ctest -R lint_fixtures

--self-test runs every rule over tests/lint_fixtures/ (a miniature repo
tree in which every file violates exactly one rule) and fails unless the
finding set matches SELF_TEST_EXPECTED exactly, in both directions, and
every rule has at least one planted finding.

Exit status: 0 clean, 1 on findings (or a self-test mismatch), 2 for a
root without src/. Findings print as `path:line: [rule] message`.
"""

import argparse
import collections
import os
import re
import sys

ALL_DIRS = ("src", "tests", "bench", "examples")
STYLE_EXT = (".cc", ".h")
ALL_EXT = (".cc", ".h", ".cpp")

# The fixture corpus is full of planted violations; only --self-test
# scans it.
FIXTURE_DIR = "tests/lint_fixtures"
REGISTRY = "src/fault/fault_points.h"

# Fault points and spans share the lowercase "<subsystem>.<operation>"
# namespace, so a chaos spec reads like a trace (arming
# "interpret.explain" fails the span of the same name).
DOTTED_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")
METRIC_NAME_RE = re.compile(r"^tracer_[a-z0-9_]+$")

RAW_SYNC_RE = re.compile(
    r"std\s*::\s*("
    r"mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|"
    r"condition_variable|condition_variable_any|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock"
    r")(?![\w_])")
METRIC_FACTORY_RE = re.compile(
    r"GetOrCreate(?:Counter|Gauge|LogHistogram)\s*\(")
STRING_LITERAL_RE = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"')
FAULT_POINT_USE_RE = re.compile(r'TRACER_FAULT_POINT\s*\(\s*"([^"]+)"\s*\)')
FAULT_POINT_ENTRY_RE = re.compile(r'X\s*\(\s*"([^"]+)"')
SPAN_SITE_RE = re.compile(r'(?:TRACER_SPAN|RecordSpan)\s*\(\s*"([^"]+)"')
STATUS_DECL_RE = re.compile(r"(?:^|[\s;{}])Status\s+([A-Za-z_]\w*)\s*\(")
# Status factory methods are construction, not fallible calls.
STATUS_FACTORIES = {"OK", "InvalidArgument", "NotFound", "IOError",
                    "OutOfRange", "FailedPrecondition", "Internal",
                    "Unavailable", "DeadlineExceeded", "DataLoss"}

RAW_IO_ALLOWLIST = ("src/common/logging.cc", "src/common/macros.h")
RAW_SYNC_ALLOWLIST = ("src/common/mutex.h",)


def blank(text):
    return "".join(c if c == "\n" else " " for c in text)


def strip_comments(text, keep_strings):
    """Blanks comment bodies (and, unless keep_strings, string/char literal
    contents), preserving line structure so offsets keep their line."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        pair = text[i:i + 2]
        if pair in ("//", "/*"):
            if pair == "//":
                j = text.find("\n", i)
                j = n if j == -1 else j
            else:
                j = text.find("*/", i + 2)
                j = n if j == -1 else j + 2
            out.append(blank(text[i:j]))
        elif ch in "\"'":
            j = i + 1
            while j < n and text[j] != ch:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(text[i:j] if keep_strings
                       else ch + blank(text[i + 1:j - 1]) + ch)
        else:
            out.append(ch)
            j = i + 1
        i = j
    return "".join(out)


class Source:
    """One C++ file, read once. `code` blanks comments and literal bodies;
    `text` blanks comments only (include targets, fault-point and metric
    names are literals)."""

    def __init__(self, root, path):
        self.rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, encoding="utf-8") as handle:
            self.raw = handle.read()
        self.text = strip_comments(self.raw, keep_strings=True)
        self.code = strip_comments(self.text, keep_strings=False)

    def line(self, pos):
        return self.raw.count("\n", 0, pos) + 1


class Tree:
    """Every C++ file under ALL_DIRS (minus the fixture corpus), plus the
    cross-file state the rules share."""

    def __init__(self, root):
        self.root = root
        self.sources = []
        fixtures = os.path.join(root, FIXTURE_DIR)
        for top in ALL_DIRS:
            for dirpath, dirnames, filenames in os.walk(
                    os.path.join(root, top)):
                dirnames.sort()
                if os.path.abspath(dirpath).startswith(fixtures):
                    dirnames[:] = []
                    continue
                self.sources += [Source(root, os.path.join(dirpath, name))
                                 for name in sorted(filenames)
                                 if name.endswith(ALL_EXT)]
        src = os.path.join(root, "src")
        # bench/ and tests/ headers are included relative to the repo root
        # ("bench/bench_util.h"), so their top dirs are valid roots too.
        self.subdirs = {d for d in os.listdir(src)
                        if os.path.isdir(os.path.join(src, d))}
        self.subdirs |= {"bench", "tests"}
        # (name, line) of each entry of the fault-point registry.
        self.fault_points = [
            (m.group(1), f.line(m.start())) for f in self.sources
            if f.rel == REGISTRY
            for m in FAULT_POINT_ENTRY_RE.finditer(f.text)]
        self.status_functions = {
            m.group(1) for f in self.files(ALL_DIRS, (".h",))
            for m in STATUS_DECL_RE.finditer(f.code)} - STATUS_FACTORIES

    def files(self, tops, extensions=ALL_EXT):
        return [f for f in self.sources
                if f.rel.split("/")[0] in tops and f.rel.endswith(extensions)]


# Each rule is a generator over the tree yielding (rel, line, message).

def no_bare_assert(tree):
    for f in tree.files(ALL_DIRS, STYLE_EXT):
        for m in re.finditer(r"(?<![\w_])assert\s*\(", f.code):
            # static_assert is a language feature, not a runtime check.
            if f.code[max(0, m.start() - 7):m.start()] != "static_":
                yield (f.rel, f.line(m.start()),
                       "use TRACER_CHECK/TRACER_DCHECK instead of assert()")
        for m in re.finditer(r"#\s*include\s*<(cassert|assert\.h)>", f.code):
            yield (f.rel, f.line(m.start()),
                   "<%s> is banned; use common/macros.h checks" % m.group(1))


def no_using_namespace(tree):
    for f in tree.files(ALL_DIRS, STYLE_EXT):
        for m in re.finditer(r"using\s+namespace\s+([\w:]+)", f.code):
            target = m.group(1)
            if f.rel.endswith(".h"):
                yield (f.rel, f.line(m.start()),
                       "`using namespace %s` in a header leaks into every "
                       "includer" % target)
            elif target == "std" or target.startswith("std::"):
                yield (f.rel, f.line(m.start()),
                       "`using namespace std` is forbidden everywhere")


def include_problem(form, target, subdirs):
    parts = target.split("/")
    if form == "<":
        if parts[0] in subdirs:
            return "<%s>: project headers use quoted includes" % target
    elif ".." in parts:
        return '"%s": no relative traversal in includes' % target
    elif len(parts) == 1:
        return '"%s": project includes use the "subdir/header.h" form' % target
    elif parts[0] not in subdirs:
        return '"%s": unknown project subdir "%s"' % (target, parts[0])
    return None


def include_hygiene(tree):
    for f in tree.files(ALL_DIRS, STYLE_EXT):
        for m in re.finditer(r'#\s*include\s*(["<])([^">]+)[">]', f.text):
            problem = include_problem(*m.groups(), tree.subdirs)
            if problem:
                yield f.rel, f.line(m.start()), problem


def header_guard(tree):
    for f in tree.files(("src",), (".h",)):
        expected = "TRACER_" + re.sub(r"[/.]", "_", f.rel[4:]).upper() + "_"
        m = re.search(r"#ifndef\s+(\w+)", f.code)
        if not m:
            yield (f.rel, 1,
                   "missing include guard (expected %s)" % expected)
        elif m.group(1) != expected:
            yield (f.rel, f.line(m.start()),
                   "guard %s should be %s" % (m.group(1), expected))


def no_raw_io(tree):
    for f in tree.files(("src",), STYLE_EXT):
        if f.rel in RAW_IO_ALLOWLIST:
            continue
        for m in re.finditer(
                r"std\s*::\s*(cerr|cout|clog)(?![\w_])|"
                r"(?<![\w_])(printf|fprintf|puts|fputs|perror)\s*\(", f.code):
            yield (f.rel, f.line(m.start()),
                   "%s in library code; log via TRACER_LOG "
                   "(common/logging.h)" % (
                       "std::" + m.group(1) if m.group(1)
                       else m.group(2) + "()"))


def no_raw_sync(tree):
    for f in tree.files(("src",), STYLE_EXT):
        if f.rel in RAW_SYNC_ALLOWLIST:
            continue
        for m in RAW_SYNC_RE.finditer(f.code):
            yield (f.rel, f.line(m.start()),
                   "raw std::%s; use common::Mutex/MutexLock/CondVar "
                   "(common/mutex.h) so thread-safety analysis sees this "
                   "lock" % m.group(1))


def unchecked_status(tree):
    if not tree.status_functions:
        return
    call = (r"(?:[A-Za-z_]\w*\s*(?:::|\.|->)\s*)*(%s)\s*\("
            % "|".join(sorted(tree.status_functions)))
    # Statement position: the previous token boundary is ; { or }.
    bare = re.compile(r"(?<=[;{}])\s*" + call)
    void_cast = re.compile(r"\(\s*void\s*\)\s*" + call)
    for f in tree.files(ALL_DIRS):
        for m in bare.finditer(f.code):
            yield (f.rel, f.line(m.start(1)),
                   "result of Status-returning %s() is dropped; consume it "
                   "or wrap the call in TRACER_IGNORE_STATUS" % m.group(1))
        for m in void_cast.finditer(f.code):
            yield (f.rel, f.line(m.start(1)),
                   "(void)-cast discards %s()'s Status invisibly; use "
                   "TRACER_IGNORE_STATUS so the drop stays auditable"
                   % m.group(1))


def include_cycle(tree):
    """Reports each cycle once, at the include edge that closes it, with the
    full path so the fix is obvious. Includes that do not resolve to a file
    under src/ are other rules' business."""
    graph = {}
    for f in tree.files(("src",)):
        graph[f.rel[4:]] = [
            (m.group(1), f.line(m.start()))
            for m in re.finditer(r'#\s*include\s*"([^"]+)"', f.text)
            if os.path.isfile(os.path.join(tree.root, "src", m.group(1)))]
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(graph, WHITE)
    reported = set()
    for start in sorted(graph):
        if color[start] != WHITE:
            continue
        color[start] = GRAY
        stack = [(start, iter(graph[start]))]
        on_path = [start]
        while stack:
            node, edges = stack[-1]
            for target, line in edges:
                state = color.get(target, BLACK)
                if state == GRAY:
                    cycle = on_path[on_path.index(target):]
                    if tuple(sorted(cycle)) not in reported:
                        reported.add(tuple(sorted(cycle)))
                        yield ("src/" + node, line, "include cycle: %s -> %s"
                               % (" -> ".join(cycle), target))
                elif state == WHITE:
                    color[target] = GRAY
                    stack.append((target, iter(graph.get(target, ()))))
                    on_path.append(target)
                    break
            else:
                color[node] = BLACK
                stack.pop()
                on_path.pop()


def fault_point_registry(tree):
    registered = dict(tree.fault_points)
    used = set()
    for f in tree.files(ALL_DIRS):
        for m in FAULT_POINT_USE_RE.finditer(f.text):
            used.add(m.group(1))
            if m.group(1) not in registered:
                yield (f.rel, f.line(m.start()),
                       'fault point "%s" is not registered in %s'
                       % (m.group(1), REGISTRY))
    for name, line in tree.fault_points:
        if name not in used:
            yield (REGISTRY, line,
                   'registered fault point "%s" is never used; remove the '
                   "entry or wire up the injection site" % name)
        if not DOTTED_NAME_RE.match(name):
            yield (REGISTRY, line,
                   'fault point "%s" does not follow the '
                   "<subsystem>.<operation> naming convention" % name)


def fault_point_exercised(tree):
    corpus = "\n".join(f.raw for f in tree.files(("tests",), (".cc",)))
    for name, line in tree.fault_points:
        if name not in corpus:
            yield (REGISTRY, line,
                   'fault point "%s" is not exercised by any test under '
                   "tests/ (arm it in a chaos spec or drop it from the "
                   "registry)" % name)


def metric_sites(tree):
    """(name, rel, line) of every literal inside a GetOrCreate* call under
    src/ (a ternary can pick between two names)."""
    for f in tree.files(("src",)):
        for m in METRIC_FACTORY_RE.finditer(f.text):
            depth = 0
            for end in range(m.end() - 1, len(f.text)):
                depth += (f.text[end] == "(") - (f.text[end] == ")")
                if depth == 0:
                    break
            for lit in STRING_LITERAL_RE.finditer(f.text, m.end(), end):
                yield lit.group(1), f.rel, f.line(lit.start())


def span_sites(tree):
    for f in tree.files(("src",)):
        for m in SPAN_SITE_RE.finditer(f.text):
            yield m.group(1), f.rel, f.line(m.start(1))


def duplicate_sites(sites, message):
    first = {}
    for name, rel, line in sites:
        if name in first:
            yield rel, line, message % (name, first[name])
        else:
            first[name] = "%s:%d" % (rel, line)


def metric_unique(tree):
    return duplicate_sites(
        metric_sites(tree), 'metric "%s" is registered at multiple call '
        "sites (first: %s); cache one handle and share it")


def obs_naming(tree):
    for name, rel, line in metric_sites(tree):
        if not METRIC_NAME_RE.match(name):
            yield (rel, line, 'metric name "%s" violates the '
                   "tracer_<layer>_<name> convention (tracer_[a-z0-9_]+)"
                   % name)
    spans = list(span_sites(tree))
    for name, rel, line in spans:
        if not DOTTED_NAME_RE.match(name):
            yield (rel, line, 'span name "%s" violates the '
                   "<subsystem>.<operation> convention (lowercase dotted)"
                   % name)
    yield from duplicate_sites(
        spans, 'span "%s" is opened at multiple sites (first: %s); give '
        "each code path its own span name")


RULES = (
    ("no-bare-assert", no_bare_assert),
    ("no-using-namespace", no_using_namespace),
    ("include-hygiene", include_hygiene),
    ("header-guard", header_guard),
    ("no-raw-io", no_raw_io),
    ("no-raw-sync", no_raw_sync),
    ("unchecked-status", unchecked_status),
    ("include-cycle", include_cycle),
    ("fault-point-registry", fault_point_registry),
    ("fault-point-exercised", fault_point_exercised),
    ("metric-unique", metric_unique),
    ("obs-naming", obs_naming),
)


def run(root):
    tree = Tree(root)
    findings = sorted((rel, line, rule, message)
                      for rule, check in RULES
                      for rel, line, message in check(tree))
    return tree, findings


# Ground truth for --self-test as (path, rule) pairs; line numbers are left
# out so editing a fixture comment does not break the harness.
SELF_TEST_EXPECTED = sorted([
    ("src/fx/no_bare_assert.cc", "no-bare-assert"),      # assert(
    ("src/fx/no_bare_assert.cc", "no-bare-assert"),      # <cassert>
    ("src/fx/no_using_namespace.cc", "no-using-namespace"),
    ("src/fx/include_hygiene.cc", "include-hygiene"),    # unqualified
    ("src/fx/include_hygiene.cc", "include-hygiene"),    # ".." traversal
    ("src/fx/include_hygiene.cc", "include-hygiene"),    # unknown subdir
    ("src/fx/include_hygiene.cc", "include-hygiene"),    # <fx/...> form
    ("src/fx/header_guard.h", "header-guard"),
    ("src/fx/no_raw_io.cc", "no-raw-io"),                # std::cerr
    ("src/fx/no_raw_io.cc", "no-raw-io"),                # printf(
    ("src/fx/no_raw_sync.cc", "no-raw-sync"),
    ("src/fx/unchecked_status.cc", "unchecked-status"),  # bare statement
    ("src/fx/unchecked_status.cc", "unchecked-status"),  # (void) cast
    ("src/fx/b.h", "include-cycle"),                     # a.h <-> b.h
    ("src/fx/fault_point_use.cc", "fault-point-registry"),  # unregistered
    ("src/fault/fault_points.h", "fault-point-registry"),   # never used
    ("src/fault/fault_points.h", "fault-point-registry"),   # bad name
    ("src/fault/fault_points.h", "fault-point-exercised"),
    ("src/fx/metric_dup_two.cc", "metric-unique"),
    ("src/fx/obs_metric_name.cc", "obs-naming"),
    ("src/fx/obs_interpret_metric.cc", "obs-naming"),
    ("src/fx/obs_span_name.cc", "obs-naming"),
    ("src/fx/obs_interpret_span.cc", "obs-naming"),
    ("src/fx/obs_span_dup_two.cc", "obs-naming"),
])


def self_test(fixture_root):
    _, findings = run(fixture_root)
    got = sorted((rel, rule) for rel, _, rule, _ in findings)
    unplanted = sorted({name for name, _ in RULES} -
                       {rule for _, rule in SELF_TEST_EXPECTED})
    if got == SELF_TEST_EXPECTED and not unplanted:
        print("lint self-test ok: %d expected findings reproduced, %d rules "
              "covered" % (len(got), len(RULES)))
        return 0
    print("lint self-test FAILED")
    for rule in unplanted:
        print("  no planted finding for rule: %s" % rule)
    expected = collections.Counter(SELF_TEST_EXPECTED)
    for item in sorted((expected - collections.Counter(got)).elements()):
        print("  missing: %s [%s]" % item)
    for item in sorted((collections.Counter(got) - expected).elements()):
        print("  spurious: %s [%s]" % item)
    for finding in findings:
        print("  raw: %s:%d: [%s] %s" % finding)
    return 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="run against %s and verify the exact expected "
                        "finding set" % FIXTURE_DIR)
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    if args.self_test:
        return self_test(os.path.join(root, FIXTURE_DIR))
    if not os.path.isdir(os.path.join(root, "src")):
        print("lint: %s does not look like the repo root (no src/)" % root)
        return 2

    tree, findings = run(root)
    for finding in findings:
        print("%s:%d: [%s] %s" % finding)
    if findings:
        print("lint: %d finding(s) in %d files"
              % (len(findings), len(tree.sources)))
        return 1
    print("lint ok: %d files, %d rules, %d Status-returning functions, "
          "%d fault points" % (len(tree.sources), len(RULES),
                               len(tree.status_functions),
                               len(tree.fault_points)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
