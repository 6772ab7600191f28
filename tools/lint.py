#!/usr/bin/env python3
"""Repo-invariant linter for the TRACER codebase.

Enforces project conventions that neither the compiler nor clang-tidy
guards out of the box:

  R1 no-bare-assert          TRACER_CHECK_* instead of assert(); <cassert>
                             and <assert.h> are banned includes.
  R2 no-using-namespace      `using namespace` is forbidden in headers
                             (anywhere), and `using namespace std` is
                             forbidden everywhere.
  R3 include-hygiene         Project headers are included as
                             "subdir/header.h" — quoted includes must be
                             slash-qualified, must not traverse with "..",
                             and project subdirs must not use <angle> form.
  R4 unchecked-status        A call to a Status-returning function may not
                             appear as a bare statement; assign it, return
                             it, or wrap it (TRACER_RETURN_IF_ERROR, CHECK,
                             test macros, (void)).
  R5 header-guard            Headers under src/ use the canonical
                             TRACER_<PATH>_H_ guard.
  R6 no-raw-io               Library code under src/ must log through
                             common/logging.h, not raw std::cerr/std::cout
                             or printf-family I/O (snprintf into a buffer is
                             fine). Allowlisted: the logging sink itself
                             (common/logging.cc) and the check-failure path
                             in common/macros.h. bench/, tests/ and
                             examples/ are user-facing programs and exempt.
  R7 fault-point-registered  Every TRACER_FAULT_POINT("name") usage must
                             name a point registered in the canonical list
                             (src/fault/fault_points.h), mirroring the
                             runtime validation in FaultRegistry::Configure
                             so a typo'd point can never silently not fire.
                             Registered names must themselves follow the
                             "<subsystem>.<operation>" convention the list
                             documents (lower_snake segments joined by
                             dots, e.g. "interpret.explain"), matching the
                             span naming that A5 enforces in tools/analyze.
  R8 fault-point-exercised   Every point registered in fault_points.h must
                             appear in at least one tests/*.cc file (chaos
                             specs embed names mid-string, so the match is
                             a plain substring). A registered-but-untested
                             point is dead chaos surface: nothing proves it
                             fires, nothing proves the code behind it
                             survives the injected failure.

Runs as `ctest -R lint` (registered in the top-level CMakeLists.txt) and
standalone:  tools/lint.py --root <repo-root>

Exit status is non-zero when any finding is reported. Findings are printed
as `path:line: [rule] message` so editors can jump to them.
"""

import argparse
import os
import re
import sys

CPP_DIRS = ("src", "tests", "bench", "examples")
CPP_EXTENSIONS = (".cc", ".h")

# tools/analyze.py's fixture corpus: a miniature tree whose files each
# violate one analyzer rule on purpose. Only --self-test scans it.
EXCLUDED_DIRS = (os.path.join("tests", "analyze_fixtures"),)

# Top-level directories under src/: quoted project includes must start with
# one of these, and <angle> includes must not.
PROJECT_SUBDIRS_CACHE = None


def project_subdirs(root):
    global PROJECT_SUBDIRS_CACHE
    if PROJECT_SUBDIRS_CACHE is None:
        src = os.path.join(root, "src")
        subdirs = {d for d in os.listdir(src)
                   if os.path.isdir(os.path.join(src, d))}
        # bench/ and tests/ headers are included relative to the repo root
        # ("bench/bench_util.h"), so their top dirs are valid roots too.
        subdirs |= {"bench", "tests"}
        PROJECT_SUBDIRS_CACHE = sorted(subdirs)
    return PROJECT_SUBDIRS_CACHE


def strip_comments_and_strings(text, keep_strings=False):
    """Replaces comment bodies (and, unless keep_strings, string/char literal
    contents) with spaces, preserving line structure so reported line numbers
    stay exact."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(c if c == "\n" else " " for c in text[i:j]))
            i = j
        elif ch in "\"'":
            if keep_strings:
                quote = ch
                j = i + 1
                while j < n and text[j] != quote:
                    j += 2 if text[j] == "\\" else 1
                j = min(j + 1, n)
                out.append(text[i:j])
                i = j
                continue
            quote = ch
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            body = "".join(c if c == "\n" else " " for c in text[i + 1:j - 1])
            out.append(quote + body + (quote if j <= n else ""))
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def find_status_functions(root):
    """Names of functions declared to return Status in project headers."""
    names = set()
    decl = re.compile(r"(?:^|[\s;{}])Status\s+([A-Za-z_]\w*)\s*\(")
    for path in walk_cpp_files(root):
        if not path.endswith(".h"):
            continue
        text = strip_comments_and_strings(read_file(path))
        for match in decl.finditer(text):
            names.add(match.group(1))
    # Status factory methods are construction, not fallible calls.
    names -= {"OK", "InvalidArgument", "NotFound", "IOError", "OutOfRange",
              "FailedPrecondition", "Internal", "Unavailable",
              "DeadlineExceeded", "DataLoss"}
    return names


def walk_cpp_files(root):
    excluded = tuple(os.path.join(root, rel) for rel in EXCLUDED_DIRS)
    for top in CPP_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            if os.path.abspath(dirpath).startswith(excluded):
                dirnames[:] = []
                continue
            for name in sorted(filenames):
                if name.endswith(CPP_EXTENSIONS):
                    yield os.path.join(dirpath, name)


def read_file(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


class Findings:
    def __init__(self, root):
        self.root = root
        self.items = []

    def add(self, path, line, rule, message):
        rel = os.path.relpath(path, self.root)
        self.items.append((rel, line, rule, message))


def check_bare_assert(path, text, findings):
    for match in re.finditer(r"(?<![\w_])assert\s*\(", text):
        # static_assert is a language feature, not a runtime check.
        before = text[max(0, match.start() - 7):match.start()]
        if before.endswith("static_"):
            continue
        findings.add(path, line_of(text, match.start()), "no-bare-assert",
                     "use TRACER_CHECK/TRACER_DCHECK instead of assert()")
    for match in re.finditer(r"#\s*include\s*<(cassert|assert\.h)>", text):
        findings.add(path, line_of(text, match.start()), "no-bare-assert",
                     "<%s> is banned; use common/macros.h checks"
                     % match.group(1))


def check_using_namespace(path, text, findings):
    for match in re.finditer(r"using\s+namespace\s+([\w:]+)", text):
        target = match.group(1)
        line = line_of(text, match.start())
        if path.endswith(".h"):
            findings.add(path, line, "no-using-namespace",
                         "`using namespace %s` in a header leaks into every "
                         "includer" % target)
        elif target == "std" or target.startswith("std::"):
            findings.add(path, line, "no-using-namespace",
                         "`using namespace std` is forbidden everywhere")


def check_include_hygiene(path, text, findings, root):
    subdirs = project_subdirs(root)
    for match in re.finditer(r'#\s*include\s*(["<])([^">]+)[">]', text):
        form, target = match.groups()
        line = line_of(text, match.start())
        if form == '"':
            if ".." in target.split("/"):
                findings.add(path, line, "include-hygiene",
                             '"%s": no relative traversal in includes'
                             % target)
            elif "/" not in target:
                findings.add(path, line, "include-hygiene",
                             '"%s": project includes use the '
                             '"subdir/header.h" form' % target)
            elif target.split("/")[0] not in subdirs:
                findings.add(path, line, "include-hygiene",
                             '"%s": unknown project subdir "%s"'
                             % (target, target.split("/")[0]))
        else:
            head = target.split("/")[0]
            if head in subdirs:
                findings.add(path, line, "include-hygiene",
                             "<%s>: project headers use quoted includes"
                             % target)


def check_unchecked_status(path, text, findings, status_functions):
    if not status_functions:
        return
    names = "|".join(sorted(status_functions))
    # A fallible call in statement position: the previous token boundary is
    # ; { or } (start of a statement), the call may be qualified or through
    # an object, and nothing consumes the returned Status.
    pattern = re.compile(
        r"(?<=[;{}])\s*(?:[A-Za-z_]\w*\s*(?:::|\.|->)\s*)*(%s)\s*\(" % names)
    for match in pattern.finditer(text):
        findings.add(path, line_of(text, match.start(1)), "unchecked-status",
                     "result of Status-returning %s() is discarded; assign, "
                     "return or TRACER_RETURN_IF_ERROR it" % match.group(1))


RAW_IO_ALLOWLIST = (
    os.path.join("src", "common", "logging.cc"),
    os.path.join("src", "common", "macros.h"),
)


def check_raw_io(path, text, findings, root):
    rel = os.path.relpath(path, root)
    if not rel.startswith("src" + os.sep) or rel in RAW_IO_ALLOWLIST:
        return
    for match in re.finditer(r"std\s*::\s*(cerr|cout|clog)(?![\w_])", text):
        findings.add(path, line_of(text, match.start()), "no-raw-io",
                     "std::%s in library code; log via TRACER_LOG "
                     "(common/logging.h)" % match.group(1))
    # printf/fprintf/puts/fputs/perror write to streams; snprintf/vsnprintf
    # format into buffers and are fine. This covers every src/ subsystem,
    # including src/serve/ (servers report through Status and src/obs).
    for match in re.finditer(
            r"(?<![\w_])(printf|fprintf|puts|fputs|perror)\s*\(", text):
        findings.add(path, line_of(text, match.start()), "no-raw-io",
                     "%s() in library code; log via TRACER_LOG "
                     "(common/logging.h)" % match.group(1))


FAULT_POINTS_CACHE = None


def registered_fault_points(root):
    """Point names registered in the canonical src/fault/fault_points.h list."""
    global FAULT_POINTS_CACHE
    if FAULT_POINTS_CACHE is None:
        path = os.path.join(root, "src", "fault", "fault_points.h")
        names = set()
        if os.path.isfile(path):
            # Entries are X("name", "doc..."); only the first literal of each
            # entry is a point name.
            for match in re.finditer(r'X\s*\(\s*"([^"]+)"', read_file(path)):
                names.add(match.group(1))
        FAULT_POINTS_CACHE = names
    return FAULT_POINTS_CACHE


# Same shape tools/analyze.py rule A5 enforces for span names: fault points
# share the "<subsystem>.<operation>" namespace with obs spans so a chaos
# spec reads like a trace (e.g. arming "interpret.explain" fails the span
# of the same name).
FAULT_POINT_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


def check_fault_point_naming(findings, root):
    """R7's registry half: every name in fault_points.h follows the
    <subsystem>.<operation> convention the header documents."""
    path = os.path.join(root, "src", "fault", "fault_points.h")
    if not os.path.isfile(path):
        return
    text = strip_comments_and_strings(read_file(path), keep_strings=True)
    for match in re.finditer(r'X\s*\(\s*"([^"]+)"', text):
        name = match.group(1)
        if not FAULT_POINT_NAME_RE.match(name):
            findings.add(path, line_of(text, match.start()),
                         "fault-point-registered",
                         'fault point "%s" does not follow the '
                         "<subsystem>.<operation> naming convention" % name)


def check_fault_points_exercised(findings, root):
    """R8: every registered fault point is named by at least one test.

    Chaos specs arm points mid-string ("dist.send:0.02:0,...") so a plain
    substring match over tests/*.cc is the right sensitivity; anchoring at
    quotes would miss exactly the composite specs that matter most.
    """
    registered = registered_fault_points(root)
    if not registered:
        return
    tests_dir = os.path.join(root, "tests")
    corpus = []
    for path in walk_cpp_files(root):
        if path.startswith(tests_dir + os.sep) and path.endswith(".cc"):
            corpus.append(read_file(path))
    blob = "\n".join(corpus)
    header = os.path.join(root, "src", "fault", "fault_points.h")
    text = read_file(header)
    for match in re.finditer(r'X\s*\(\s*"([^"]+)"', text):
        name = match.group(1)
        if name not in blob:
            findings.add(header, line_of(text, match.start()),
                         "fault-point-exercised",
                         'fault point "%s" is not exercised by any test '
                         "under tests/ (arm it in a chaos spec or drop it "
                         "from the registry)" % name)


def check_fault_points(path, with_strings, findings, root):
    registered = registered_fault_points(root)
    for match in re.finditer(
            r'TRACER_FAULT_POINT\s*\(\s*"([^"]+)"\s*\)', with_strings):
        name = match.group(1)
        if name not in registered:
            findings.add(path, line_of(with_strings, match.start()),
                         "fault-point-registered",
                         'fault point "%s" is not registered in '
                         "src/fault/fault_points.h" % name)


def check_header_guard(path, text, findings, root):
    rel = os.path.relpath(path, os.path.join(root, "src"))
    if rel.startswith("..") or not path.endswith(".h"):
        return
    expected = "TRACER_" + re.sub(r"[/.]", "_", rel).upper() + "_"
    match = re.search(r"#ifndef\s+(\w+)", text)
    if not match:
        findings.add(path, 1, "header-guard",
                     "missing include guard (expected %s)" % expected)
    elif match.group(1) != expected:
        findings.add(path, line_of(text, match.start()), "header-guard",
                     "guard %s should be %s" % (match.group(1), expected))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print("lint: %s does not look like the repo root (no src/)" % root)
        return 2

    status_functions = find_status_functions(root)
    findings = Findings(root)
    check_fault_point_naming(findings, root)
    check_fault_points_exercised(findings, root)
    file_count = 0
    for path in walk_cpp_files(root):
        file_count += 1
        raw = read_file(path)
        text = strip_comments_and_strings(raw)
        # Include targets are string literals, so the hygiene check runs on
        # a comment-stripped view that keeps strings intact.
        with_strings = strip_comments_and_strings(raw, keep_strings=True)
        check_bare_assert(path, text, findings)
        check_using_namespace(path, text, findings)
        check_include_hygiene(path, with_strings, findings, root)
        check_unchecked_status(path, text, findings, status_functions)
        check_raw_io(path, text, findings, root)
        check_fault_points(path, with_strings, findings, root)
        check_header_guard(path, text, findings, root)

    for rel, line, rule, message in sorted(findings.items):
        print("%s:%d: [%s] %s" % (rel, line, rule, message))
    if findings.items:
        print("lint: %d finding(s) in %d files"
              % (len(findings.items), file_count))
        return 1
    print("lint ok: %d files, %d Status-returning functions tracked"
          % (file_count, len(status_functions)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
