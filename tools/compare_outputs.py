"""Sort the files that differ between two tools/outputs.sh directories.

Usage: python3 tools/compare_outputs.py BEFORE AFTER

A file is "digits only" when its two versions have the same tokens except
numbers within 1e-10 * max(1, |a|) of each other; every other difference,
a missing file included, is "other".  Exit status 1 if "other" is not empty.
"""

import re
import sys
from pathlib import Path

TOKEN = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[^-+.\d]+|.")


def same_token(a: str, b: str) -> bool:
    try:
        return a == b or abs(float(a) - float(b)) <= 1e-10 * max(1.0, abs(float(a)))
    except ValueError:
        return False


def digits_only(a: Path, b: Path) -> bool:
    if not (a.is_file() and b.is_file()):
        return False
    ta, tb = TOKEN.findall(a.read_text()), TOKEN.findall(b.read_text())
    return len(ta) == len(tb) and all(map(same_token, ta, tb))


def main(before: Path, after: Path) -> int:
    groups: dict[str, list[str]] = {"digits only": [], "other": []}
    for name in sorted({p.name for d in (before, after) for p in d.iterdir()}):
        a, b = before / name, after / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            groups["digits only" if digits_only(a, b) else "other"].append(name)
    for label, names in groups.items():
        print(f"{label}: {len(names)}", *(f"  {name}" for name in names), sep="\n")
    return 1 if groups["other"] else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.splitlines()[2])
    sys.exit(main(Path(sys.argv[1]), Path(sys.argv[2])))
