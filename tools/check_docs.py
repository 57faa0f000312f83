#!/usr/bin/env python
"""Docs consistency checker (run in CI).

Three checks over the repo's markdown (README.md, EXPERIMENTS.md,
ROADMAP.md, DESIGN.md, docs/*.md):

1. **Links** — every relative markdown link ``[text](target)`` must
   resolve to an existing file or directory (``#fragment`` suffixes
   stripped; ``http(s)://``, ``mailto:`` and pure-anchor links are
   skipped).
2. **CLI flags** — every ``--flag`` token mentioned in the docs must be
   an option the ``repro`` CLI actually defines somewhere in
   ``repro.cli.build_parser()`` (subparsers included), so renaming or
   removing a flag without updating the docs fails the build.  Flags
   belonging to other tools (pytest, pip) live in ``FLAG_ALLOWLIST``.
   Flags in ROADMAP.md's ``## Open items`` section (up to the next
   ``## `` heading) are planned, not yet built, and are not checked;
   the rest of ROADMAP.md and every other doc are.
3. **Module map** — every module under ``src/repro/`` must be
   reachable from the ``docs/index.md`` module map, either by exact
   backticked name (```repro.os.vfs```) or through a package wildcard
   (```repro.workloads.*```), so new modules land in the index and
   renames cannot silently orphan a row.

Exit status 0 when clean; 1 with one message per problem otherwise.

Usage::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOC_GLOBS = ("README.md", "EXPERIMENTS.md", "ROADMAP.md", "DESIGN.md",
             "PAPER.md", "CHANGES.md")
DOCS_DIR = "docs"

# Flags that appear in the docs but belong to tools other than the
# repro CLI (pytest/pytest-benchmark invocations, pip, etc.).
FLAG_ALLOWLIST = {
    "--benchmark-only",
}

# Flags under this heading of this doc are plans for the CLI, not
# claims about it, so the flag check skips them (links still checked).
PLANNED_DOC = "ROADMAP.md"
PLANNED_HEADING = "## Open items"

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]+)")
MODULE_RE = re.compile(r"`(repro(?:\.[\w*]+)+)`")

MODULE_MAP_DOC = os.path.join(DOCS_DIR, "index.md")


def doc_files() -> list[str]:
    files = [f for f in DOC_GLOBS
             if os.path.isfile(os.path.join(REPO, f))]
    docs = os.path.join(REPO, DOCS_DIR)
    if os.path.isdir(docs):
        files.extend(os.path.join(DOCS_DIR, f)
                     for f in sorted(os.listdir(docs))
                     if f.endswith(".md"))
    return files


def cli_flags() -> set[str]:
    """Every option string any repro subparser defines."""
    from repro.cli import build_parser

    flags: set[str] = set()

    def walk(parser: argparse.ArgumentParser) -> None:
        for action in parser._actions:
            flags.update(s for s in action.option_strings
                         if s.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    walk(sub)

    walk(build_parser())
    return flags


def check_links(relpath: str, text: str, problems: list[str]) -> None:
    base = os.path.dirname(os.path.join(REPO, relpath))
    for lineno, line in enumerate(text.splitlines(), 1):
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:        # pure anchor
                continue
            resolved = os.path.normpath(os.path.join(base, path))
            if not os.path.exists(resolved):
                problems.append(
                    f"{relpath}:{lineno}: broken link "
                    f"({target!r} -> {os.path.relpath(resolved, REPO)})")


def check_flags(relpath: str, text: str, known: set[str],
                problems: list[str]) -> None:
    planned = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.startswith("## "):
            planned = (relpath == PLANNED_DOC
                       and line.rstrip() == PLANNED_HEADING)
        if planned:
            continue
        for flag in FLAG_RE.findall(line):
            if flag in known or flag in FLAG_ALLOWLIST:
                continue
            problems.append(
                f"{relpath}:{lineno}: flag {flag} is not defined by "
                f"any repro subcommand (rename the doc or add the "
                f"flag to repro.cli)")


def repro_modules() -> list[str]:
    """Every leaf module under src/repro (packages and mains skipped)."""
    src = os.path.join(REPO, "src")
    modules = []
    for dirpath, _dirnames, filenames in os.walk(
            os.path.join(src, "repro")):
        for name in filenames:
            if not name.endswith(".py") \
                    or name in ("__init__.py", "__main__.py"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), src)
            modules.append(rel[:-3].replace(os.sep, "."))
    return sorted(modules)


def check_module_map(problems: list[str]) -> None:
    with open(os.path.join(REPO, MODULE_MAP_DOC),
              encoding="utf-8") as fh:
        mentions = set(MODULE_RE.findall(fh.read()))
    exact = {m for m in mentions if not m.endswith(".*")}
    prefixes = tuple(m[:-1] for m in mentions if m.endswith(".*"))
    for module in repro_modules():
        if module in exact \
                or (prefixes and module.startswith(prefixes)):
            continue
        problems.append(
            f"{MODULE_MAP_DOC}: module {module} is not reachable from "
            f"the module map (add a row naming it, or a package "
            f"wildcard like `{module.rsplit('.', 1)[0]}.*`)")


def main() -> int:
    problems: list[str] = []
    known = cli_flags()
    for relpath in doc_files():
        with open(os.path.join(REPO, relpath), encoding="utf-8") as fh:
            text = fh.read()
        check_links(relpath, text, problems)
        check_flags(relpath, text, known, problems)
    check_module_map(problems)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)")
        for p in problems:
            print("  " + p)
        return 1
    n = len(doc_files())
    print(f"check_docs: {n} markdown files clean "
          f"({len(known)} CLI flags known)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
