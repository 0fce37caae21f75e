#!/usr/bin/env python3
"""Fails when a repo markdown file references a file that does not exist,
when a source subsystem is documented nowhere, or when a doc names a
build flag the build does not have.

Usage: check_docs_links.py [REPO_ROOT]

Three checks:

1. Dangling references: scans the repo's top-level *.md files for
   references to repo files -- markdown links and path-looking tokens in
   inline code spans like `src/obs/metrics.h` -- and reports any that
   point at nothing on disk. Fenced code blocks are stripped first, so a
   span may wrap across one line break and its paths are still checked.
   Shorthand like `foo.h/.cc` expands into both files; paths ending in
   "/" must be directories; build outputs under build*/ are resolved
   relative to any configured build dir if one exists, and skipped
   otherwise (a fresh checkout has no build tree).

2. Orphan subsystems: every top-level directory under src/ must be
   mentioned as `src/<name>` somewhere in DESIGN.md. A subsystem the
   design document never names is either undocumented (fix DESIGN.md) or
   dead (delete it); both are CI failures.

3. Build flags: every `-DSTREAMQ_<NAME>` in README.md, DESIGN.md,
   EXPERIMENTS.md and .claude/skills/verify/SKILL.md must be an option()
   or cache variable of the top-level CMakeLists.txt. cmake only warns
   about an unused -D, so a removed switch left in the docs would keep
   "working" while doing nothing.

Exit code 0 = clean, 1 = problems (listed on stderr).
"""

import glob
import os
import re
import sys

# Tokens that look like repo paths: contain a slash or a known source/doc
# extension. Deliberately conservative to avoid flagging prose.
PATH_EXTENSIONS = (
    ".h", ".cc", ".cpp", ".md", ".txt", ".py", ".json", ".cmake",
)

# `path` or `path/.ext` inside backticks (a span may wrap onto a second
# line), and [text](path) markdown links.
FENCED_BLOCK = re.compile(r"^[ \t]*```.*?^[ \t]*```[^\n]*$",
                          re.MULTILINE | re.DOTALL)
CODE_SPAN = re.compile(r"`([^`\n]+(?:\n[^`\n]+)?)`")
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)\)")

# External references we never check.
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

# Docs whose -DSTREAMQ_<NAME> flags must exist in the top-level build.
FLAG_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
             os.path.join(".claude", "skills", "verify", "SKILL.md"))
DOC_FLAG = re.compile(r"-D(STREAMQ_[A-Z0-9_]+)")
CMAKE_OPTION = re.compile(r"\boption\(\s*(STREAMQ_\w+)")
CMAKE_CACHE_VAR = re.compile(r"\bset\(\s*(STREAMQ_\w+)\b[^)]*?\bCACHE\b")


def looks_like_path(token):
    if token.startswith(SKIP_PREFIXES):
        return False
    if any(ch in token for ch in " <>{}$=;,"):
        return False
    if token.endswith("/"):
        return "/" in token.rstrip("/")
    base = token.split("/")[-1]
    has_ext = any(base.endswith(ext) for ext in PATH_EXTENSIONS)
    named_file = base in ("CMakeLists.txt", "Makefile")
    return ("/" in token and (has_ext or named_file)) or has_ext or named_file


def expand_shorthand(token):
    """`foo.h/.cc` -> [foo.h, foo.cc]; `foo.{h,cc}` -> both too."""
    m = re.fullmatch(r"(.+)\.([a-z]+)/\.([a-z]+)", token)
    if m:
        return [f"{m.group(1)}.{m.group(2)}", f"{m.group(1)}.{m.group(3)}"]
    m = re.fullmatch(r"(.+)\.\{([a-z]+),([a-z]+)\}", token)
    if m:
        return [f"{m.group(1)}.{m.group(2)}", f"{m.group(1)}.{m.group(3)}"]
    return [token]


def candidate_dirs(root, md_path):
    # Paths in docs are written relative to the repo root (the dominant
    # convention), to src/ (the include-path convention of the C++ sources),
    # to scripts/ (checker scripts are often named bare), or occasionally
    # to the doc's own directory.
    return [root, os.path.join(root, "src"), os.path.join(root, "scripts"),
            os.path.dirname(md_path)]


def exists_in_repo(root, md_path, token):
    if token.startswith("build/") or token.startswith("build-"):
        # Build outputs: a fresh checkout has no build tree, so these are
        # documentation of what a build *produces*, not checked-in files.
        return True
    if token.startswith("/"):
        # Absolute paths describe the host environment (reference corpora,
        # container mounts), not repo files; out of scope for this check.
        return True
    for base in candidate_dirs(root, md_path):
        full = os.path.join(base, token)
        if token.endswith("/"):
            if os.path.isdir(full.rstrip("/")):
                return True
        elif os.path.exists(full):
            return True
    return False


def check_file(root, md_path):
    dangling = []
    with open(md_path, "r", encoding="utf-8") as f:
        text = FENCED_BLOCK.sub("", f.read())

    tokens = set()
    for m in CODE_SPAN.finditer(text):
        span = m.group(1).strip()
        for piece in span.split():
            if looks_like_path(piece):
                tokens.add(piece)
    for m in MD_LINK.finditer(text):
        target = m.group(1).strip()
        if not target.startswith(SKIP_PREFIXES):
            tokens.add(target)

    for token in sorted(tokens):
        for path in expand_shorthand(token.rstrip(".,:;")):
            # Tokens with glob or placeholder characters are illustrative.
            if any(ch in path for ch in "*?N<>"):
                continue
            if not looks_like_path(path):
                continue
            if not exists_in_repo(root, md_path, path):
                dangling.append((md_path, path))
    return dangling


def orphan_subsystems(root):
    """Top-level src/ directories DESIGN.md never names as src/<name>."""
    design = os.path.join(root, "DESIGN.md")
    src = os.path.join(root, "src")
    if not os.path.isfile(design) or not os.path.isdir(src):
        return []
    with open(design, "r", encoding="utf-8") as f:
        text = f.read()
    orphans = []
    for name in sorted(os.listdir(src)):
        if not os.path.isdir(os.path.join(src, name)):
            continue
        if f"src/{name}" not in text:
            orphans.append(name)
    return orphans


def unknown_build_flags(root):
    """(doc, flag) pairs naming a -DSTREAMQ_* the top-level build lacks."""
    cmake = os.path.join(root, "CMakeLists.txt")
    if not os.path.isfile(cmake):
        return []
    with open(cmake, "r", encoding="utf-8") as f:
        text = f.read()
    known = set(CMAKE_OPTION.findall(text)) | set(CMAKE_CACHE_VAR.findall(text))
    unknown = []
    for doc in FLAG_DOCS:
        path = os.path.join(root, doc)
        if not os.path.isfile(path):
            continue
        with open(path, "r", encoding="utf-8") as f:
            flags = set(DOC_FLAG.findall(f.read()))
        unknown.extend((doc, flag) for flag in sorted(flags - known))
    return unknown


def main():
    root = os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else os.getcwd()
    md_files = sorted(glob.glob(os.path.join(root, "*.md")))
    if not md_files:
        print(f"check_docs_links: no markdown files under {root}",
              file=sys.stderr)
        return 1

    dangling = []
    for md in md_files:
        dangling.extend(check_file(root, md))

    orphans = orphan_subsystems(root)
    bad_flags = unknown_build_flags(root)

    if dangling or orphans or bad_flags:
        for md, path in dangling:
            print(f"check_docs_links: {os.path.relpath(md, root)} references "
                  f"missing file: {path}", file=sys.stderr)
        for name in orphans:
            print(f"check_docs_links: src/{name}/ is not documented in "
                  f"DESIGN.md (orphan subsystem)", file=sys.stderr)
        for doc, flag in bad_flags:
            print(f"check_docs_links: {doc} documents -D{flag}, which is "
                  f"not an option or cache variable of CMakeLists.txt",
                  file=sys.stderr)
        return 1
    print(f"check_docs_links: {len(md_files)} markdown files OK, "
          f"no orphan subsystems, every documented build flag exists")
    return 0


if __name__ == "__main__":
    sys.exit(main())
