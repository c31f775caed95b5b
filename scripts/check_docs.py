#!/usr/bin/env python3
"""Documentation drift checker (wired into scripts/tier1.sh).

Checks, over the repo's own markdown (README, DESIGN, EXPERIMENTS, ROADMAP,
CHANGES, docs/*.md):

  1. intra-repo links resolve — every relative [text](path) target exists;
  2. code fences are balanced in every file;
  3. referenced artifacts exist — `bench_*` / `examples/*` binaries named in
     docs correspond to sources, and every `--flag` spelled in docs appears
     somewhere in the source tree (a renamed or deleted CLI flag makes its
     documentation stale);
  4. every page under docs/ is linked from the README's documentation index.

Exit status is non-zero if any check fails; findings are printed one per
line as `file: message`.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Repo-authored documentation. PAPER.md / PAPERS.md / SNIPPETS.md / ISSUE.md
# are generated inputs (paper abstracts, retrieval dumps), not docs we keep
# in sync with the code.
DOC_FILES = sorted(
    [p for p in REPO.glob("*.md")
     if p.name not in {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md"}]
    + list(REPO.glob("docs/*.md")))

# Directories whose sources define the CLI surface documented in the docs.
SOURCE_DIRS = ["src", "bench", "tests", "examples", "scripts", "perfbench"]
SOURCE_SUFFIXES = {".cpp", ".h", ".py", ".sh", ".txt"}  # .txt: CMakeLists

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"(--[a-z][a-z0-9][a-z0-9_-]*)")
# A leading dot names a hidden directory (the benchmark's `.bench_build/`),
# not a binary.
BINARY_RE = re.compile(r"(?<!\.)\b(bench_[a-z0-9_]+)\b")
EXAMPLE_RE = re.compile(r"examples/([a-z0-9_]+)\b")
SCRIPT_RE = re.compile(r"scripts/([a-z0-9_]+\.(?:py|sh))\b")

# External tool flags that legitimately appear in docs but not in our code.
FLAG_ALLOWLIST = {"--help"}


def source_corpus() -> str:
    chunks = []
    for d in SOURCE_DIRS:
        for p in (REPO / d).rglob("*"):
            if p.suffix in SOURCE_SUFFIXES and p.is_file():
                chunks.append(p.read_text(errors="replace"))
    return "\n".join(chunks)


def check_file(path: Path, corpus: str, problems: list[str]) -> None:
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
    for flag in sorted(set(FLAG_RE.findall(text))):
        if flag in FLAG_ALLOWLIST:
            continue
        if flag not in corpus:
            problems.append(
                f"{rel}: documents flag {flag} not found in sources")
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
    corpus = source_corpus()
    problems: list[str] = []
    for path in DOC_FILES:
        check_file(path, corpus, problems)
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
