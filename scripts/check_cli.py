#!/usr/bin/env python3
"""Command-line contract check for the bench binaries and examples.

For every binary given, checks that

  1. `--help` exits 0 and prints only the usage line and the flag table, so
     no run starts;
  2. an unknown flag exits 2;
  3. a value-taking flag with its value missing exits 2, both at the end of
     the command line and when the next argument is another flag.

    scripts/check_cli.py BINARY...

Exit status is non-zero if any check fails; findings are printed one per
line as `binary: message`. The help-table reader is shared with
scripts/check_docs.py.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

# One table row: two spaces, the flag, then an optional upper-case metavar.
ROW_RE = re.compile(r"^  (--[a-z0-9][a-z0-9_-]*)(?: ([A-Z]+))?\s")
TIMEOUT_S = 60


def run(binary: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([binary, *args], capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)


def help_table(binary: str) -> dict[str, bool] | None:
    """Flag -> takes a value, read from `binary --help`; None if the output
    is not a bare usage line plus table."""
    out = run(binary, "--help")
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines or not lines[0].startswith("usage: "):
        return None
    table: dict[str, bool] = {}
    for line in lines[1:]:
        m = ROW_RE.match(line)
        if m is None:
            return None
        table[m.group(1)] = m.group(2) is not None
    return table


def check(binary: str, problems: list[str]) -> None:
    name = Path(binary).name
    table = help_table(binary)
    if table is None or "--help" not in table:
        problems.append(f"{name}: --help does not exit 0 with only the table")
        return
    cases = [("--no-such-flag",)]
    valued = [flag for flag, takes_value in table.items() if takes_value]
    if not valued:
        problems.append(f"{name}: declares no flag that takes a value")
    else:
        cases += [(valued[0],), (valued[0], "--no-such-flag")]
    for args in cases:
        out = run(binary, *args)
        if out.returncode != 2 or not out.stderr.startswith(args[0] + ": "):
            problems.append(
                f"{name}: `{' '.join(args)}` exited {out.returncode} "
                f"with stderr {out.stderr.strip()[:80]!r}, expected exit 2 "
                f"and '{args[0]}: ...'")


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    problems: list[str] = []
    for binary in argv:
        check(binary, problems)
    for p in problems:
        print(p)
    if problems:
        print(f"check_cli: {len(problems)} problem(s) across "
              f"{len(argv)} binaries")
        return 1
    print(f"check_cli OK: {len(argv)} binaries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
