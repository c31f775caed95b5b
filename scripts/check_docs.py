#!/usr/bin/env python3
"""Documentation drift checker (wired into scripts/tier1.sh).

Checks, over the repo's own markdown (README, DESIGN, EXPERIMENTS, ROADMAP,
CHANGES, docs/*.md):

  1. intra-repo links resolve — every relative [text](path) target exists;
  2. code fences are balanced in every file;
  3. referenced artifacts exist — `bench_*` / `examples/*` binaries named in
     docs correspond to sources, and every `--flag` spelled in docs is one a
     program declares: a bench binary or example (its `--help` table), the
     benchmark driver pandas_perf (its usage text), a script (its argparse
     flags or, for tier1.sh, its options), or an external tool. A flag that
     follows a program's name in a documented command must be one of that
     program's own flags;
  4. every page under docs/ is linked from the README's documentation index.

    scripts/check_docs.py [--build DIR]   # DIR holds the built binaries
                                          # (default: build)

Exit status is non-zero if any check fails; findings are printed one per
line as `file: message`.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from check_cli import help_table

REPO = Path(__file__).resolve().parent.parent

# Repo-authored documentation. PAPER.md / PAPERS.md / SNIPPETS.md / ISSUE.md
# are generated inputs (paper abstracts, retrieval dumps), not docs we keep
# in sync with the code.
DOC_FILES = sorted(
    [p for p in REPO.glob("*.md")
     if p.name not in {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md"}]
    + list(REPO.glob("docs/*.md")))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"(--[a-z][a-z0-9][a-z0-9_-]*)")
# A leading dot names a hidden directory (the benchmark's `.bench_build/`),
# not a binary.
BINARY_RE = re.compile(r"(?<!\.)\b(bench_[a-z0-9_]+)\b")
EXAMPLE_RE = re.compile(r"examples/([a-z0-9_]+)\b")
SCRIPT_RE = re.compile(r"scripts/([a-z0-9_]+\.(?:py|sh))\b")

# Flags of external tools named in the docs: cmake, ctest and Google
# Benchmark (bench_micro's argv belongs to it).
EXTERNAL_FLAGS = {"cmake": {"--build"},
                  "ctest": {"--test-dir", "--output-on-failure"},
                  "bench_micro": {"--benchmark_filter"}}
# Program names in a documented command, mapped to the key of their flags.
PROGRAM_RE = re.compile(
    r"(?:^|/)(bench_[a-z0-9_]+|pandas_perf|cmake|ctest|"
    r"(?:examples|scripts|perfbench)/[a-z0-9_]+(?:\.py|\.sh)?)$")
ARGPARSE_RE = re.compile(r"add_argument\(\s*\"(--[a-z0-9][a-z0-9_-]*)\"")
SHELL_OPTION_RE = re.compile(r"== \"(--[a-z0-9][a-z0-9_-]*)\"")
USAGE_RE = re.compile(r"kUsage =(.*?);", re.S)


def declared_flags(build: Path, problems: list[str]) -> dict[str, set[str]]:
    """Program key -> the flags it declares."""
    flags: dict[str, set[str]] = dict(EXTERNAL_FLAGS)
    for src in sorted(REPO.glob("bench/*.cpp")) + sorted(
            REPO.glob("examples/*.cpp")):
        if src.stem == "bench_micro":
            continue
        binary = build / src.parent.name / src.stem
        table = help_table(str(binary)) if binary.exists() else None
        if table is None:
            problems.append(f"{binary}: missing or without a --help table "
                            "(build the repo first)")
            continue
        key = src.stem if src.parent.name == "bench" else f"examples/{src.stem}"
        flags[key] = set(table)
    usage = USAGE_RE.search((REPO / "perfbench/pandas_perf.cpp").read_text())
    flags["pandas_perf"] = set(FLAG_RE.findall(usage.group(1))) | {"--help"}
    for script in sorted(REPO.glob("scripts/*.py")) + sorted(
            REPO.glob("perfbench/*.py")):
        key = f"{script.parent.name}/{script.name}"
        flags[key] = set(ARGPARSE_RE.findall(script.read_text())) | {"--help"}
    flags["scripts/tier1.sh"] = set(
        SHELL_OPTION_RE.findall((REPO / "scripts/tier1.sh").read_text()))
    return flags


def known(flag: str, allowed: set[str]) -> bool:
    """A trailing dash names a flag family (`--ge-*`)."""
    if flag.endswith("-"):
        return any(f.startswith(flag) for f in allowed)
    return flag in allowed


def commands(lines: list[str]) -> list[tuple[int, str]]:
    """Documented commands: inline code spans, and fenced lines joined across
    trailing backslashes, with their line numbers."""
    out: list[tuple[int, str]] = []
    in_fence = False
    pending = ""
    for lineno, line in enumerate(lines, 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            pending = ""
            continue
        if in_fence:
            pending += line.rstrip().rstrip("\\") + " "
            if not line.rstrip().endswith("\\"):
                out.append((lineno, pending))
                pending = ""
        else:
            out += [(lineno, span) for span in re.findall(r"`([^`]+)`", line)]
    return out


def check_commands(rel: Path, lines: list[str],
                   flags: dict[str, set[str]], problems: list[str]) -> None:
    for lineno, command in commands(lines):
        program = None
        for token in command.split():
            if token in {"|", "||", "&&", ";", ">", "2>"}:
                program = None
                continue
            m = PROGRAM_RE.search(token)
            if m is not None and m.group(1) in flags:
                program = m.group(1)
                continue
            flag = token.split("=", 1)[0]
            if program is not None and FLAG_RE.fullmatch(flag) and not known(
                    flag, flags[program]):
                problems.append(f"{rel}:{lineno}: {program} does not "
                                f"declare {flag}")


def check_file(path: Path, flags: dict[str, set[str]],
               problems: list[str]) -> None:
    rel = path.relative_to(REPO)
    text = path.read_text(errors="replace")
    lines = text.splitlines()

    # 2. balanced code fences (``` toggles; must end closed).
    in_fence = False
    for line in lines:
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
    if in_fence:
        problems.append(f"{rel}: unbalanced code fence (``` left open)")

    # 1. intra-repo links.
    in_fence = False
    for lineno, line in enumerate(lines, 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = (path.parent / target_path).resolve()
            if not resolved.exists():
                problems.append(
                    f"{rel}:{lineno}: dead link -> {target_path}")

    # 3. stale flags / binaries / scripts.
    every_flag = set().union(*flags.values())
    for flag in sorted(set(FLAG_RE.findall(text))):
        if not known(flag, every_flag):
            problems.append(
                f"{rel}: documents flag {flag} that no program declares")
    check_commands(rel, lines, flags, problems)
    for binary in sorted(set(BINARY_RE.findall(text))):
        if not (REPO / "bench" / f"{binary}.cpp").exists():
            problems.append(
                f"{rel}: references {binary} but bench/{binary}.cpp is gone")
    for example in sorted(set(EXAMPLE_RE.findall(text))):
        if not (REPO / "examples" / f"{example}.cpp").exists():
            problems.append(
                f"{rel}: references examples/{example} "
                f"but examples/{example}.cpp is gone")
    for script in sorted(set(SCRIPT_RE.findall(text))):
        if not (REPO / "scripts" / script).exists():
            problems.append(
                f"{rel}: references scripts/{script} which does not exist")


def check_readme_index(problems: list[str]) -> None:
    readme = (REPO / "README.md").read_text(errors="replace")
    linked = set(LINK_RE.findall(readme))
    for page in sorted(REPO.glob("docs/*.md")):
        ref = f"docs/{page.name}"
        if not any(link.split("#", 1)[0] == ref for link in linked):
            problems.append(
                f"README.md: docs index is missing a link to {ref}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", default="build",
                    help="build tree holding bench/ and examples/ binaries")
    args = ap.parse_args()
    problems: list[str] = []
    flags = declared_flags(REPO / args.build, problems)
    for path in DOC_FILES:
        check_file(path, flags, problems)
    check_readme_index(problems)
    if problems:
        for p in problems:
            print(p)
        print(f"check_docs: {len(problems)} problem(s) "
              f"across {len(DOC_FILES)} files")
        return 1
    print(f"check_docs OK: {len(DOC_FILES)} files, links/fences/flags/index "
          "all clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
