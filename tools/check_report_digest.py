"""Pin the reproduction's outputs: a per-experiment digest of ``repro all``.

``repro all`` prints one section per experiment, each opened by a
``=== <id>: <description> ===`` line.  This gate hashes every section
(SHA-256 of its text) and compares the hashes with the committed digest,
so a change that moves any rendered paper number names the experiment
it moved::

    PYTHONPATH=src python -m repro all --no-cache > report.txt
    python tools/check_report_digest.py report.txt          # compare
    python tools/check_report_digest.py report.txt --write  # re-pin

Re-pin only for a deliberate change to a reported number, and say which
experiments moved and why.  Exit status: 0 when every section matches,
1 on any changed, missing or extra experiment, 2 on unusable input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional

DEFAULT_DIGEST = (Path(__file__).resolve().parent.parent
                  / "tests" / "golden" / "repro_all_digest.json")

_HEADER = re.compile(r"=== ([^:\s]+): .* ===\Z")


def section_digests(text: str) -> Dict[str, str]:
    """SHA-256 of each experiment's section, keyed by experiment id."""
    sections: Dict[str, List[str]] = {}
    current: Optional[List[str]] = None
    for line in text.splitlines():
        m = _HEADER.match(line)
        if m:
            if m.group(1) in sections:
                raise ValueError(f"experiment {m.group(1)!r} appears twice")
            current = sections[m.group(1)] = []
        elif current is None:
            if line.strip():
                raise ValueError(f"text before the first section: {line!r}")
            continue
        current.append(line)
    return {exp: hashlib.sha256("\n".join(lines).encode()).hexdigest()
            for exp, lines in sections.items()}


def compare(want: Dict[str, str], got: Dict[str, str]) -> List[str]:
    """One line per experiment whose section differs from the pin."""
    problems = []
    for exp in sorted(set(want) | set(got)):
        if exp not in got:
            problems.append(f"{exp}: missing from the report")
        elif exp not in want:
            problems.append(f"{exp}: not in the committed digest")
        elif want[exp] != got[exp]:
            problems.append(f"{exp}: rendered output changed")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("report", help="stdout of `repro all` ('-' = stdin)")
    parser.add_argument("--digest", type=Path, default=DEFAULT_DIGEST,
                        help="committed digest (default: %(default)s)")
    parser.add_argument("--write", action="store_true",
                        help="re-pin: write the report's digest instead")
    args = parser.parse_args(argv)
    text = (sys.stdin.read() if args.report == "-"
            else Path(args.report).read_text())
    try:
        got = section_digests(text)
    except ValueError as exc:
        print(f"report digest: {exc}", file=sys.stderr)
        return 2
    if not got:
        print("report digest: no experiment sections in the report",
              file=sys.stderr)
        return 2
    if args.write:
        args.digest.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"report digest: pinned {len(got)} experiments to {args.digest}")
        return 0
    problems = compare(json.loads(args.digest.read_text()), got)
    for problem in problems:
        print(f"report digest: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"report digest: all {len(got)} experiments match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
