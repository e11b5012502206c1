#!/usr/bin/env python3
"""Checks that every PLIN_* environment variable the library reads is
documented in a knob table, and that every documented one is still read.

Usage: check_env_knobs.py [REPO_ROOT]

A read is a string literal "PLIN_..." passed to std::getenv or to one of
the env_* helpers that wrap it, anywhere under src/. A documented
variable is a `PLIN_...` (or `PLIN_...=value`) code span in a table row
of docs/xmpi.md's "Tuning knobs" section or of docs/tracing.md's
"Turning it on" section. CMake options are spelled `-DPLIN_...` and do
not count. Exits 1 and names every mismatch.
"""
import pathlib
import re
import sys

READ = re.compile(r'\b(?:getenv|env_\w+)\(\s*"(PLIN_[A-Z0-9_]+)"')
DOCUMENTED = re.compile(r'`(PLIN_[A-Z0-9_]+)(?:=[^`]*)?`')
TABLES = {"docs/xmpi.md": "## Tuning knobs", "docs/tracing.md": "## Turning it on"}


def section(text, heading):
    start = text.index(heading) + len(heading)
    end = text.find("\n## ", start)
    return text[start:] if end < 0 else text[start:end]


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    read = set()
    for path in sorted((root / "src").rglob("*.[ch]pp")):
        read.update(READ.findall(path.read_text()))
    documented = set()
    for doc, heading in TABLES.items():
        for line in section((root / doc).read_text(), heading).splitlines():
            if line.startswith("|"):
                documented.update(DOCUMENTED.findall(line))
    for name in sorted(read - documented):
        print(f"{name} is read in src/ but missing from the knob tables")
    for name in sorted(documented - read):
        print(f"{name} is documented but read nowhere in src/")
    print(f"{len(read)} PLIN_* variables read: {' '.join(sorted(read))}")
    return 1 if read != documented else 0


if __name__ == "__main__":
    sys.exit(main())
