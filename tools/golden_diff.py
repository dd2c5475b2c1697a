"""Audit of the files that differ between two golden-output directories.

    python3 tools/golden_diff.py BASE HEAD

BASE and HEAD are directories written by ``tools/golden_outputs.py``.  It
prints how many files moved, by file-name prefix (``norms``, ``bounds``,
...), then, for every JSON path whose value moved in some file, how many
values moved there and the worst relative change ``|a - b| / max(|a|, |b|)``
over them.  A path names object keys joined by dots, with ``[]`` for any
list index, so the same field of every report or record counts as one
path.  A value that is not a number, or whose type changed, counts as a
relative change of 1; a path present on one side only is marked ``added``
or ``removed``.  A file that is JSON (JSON Lines for ``.jsonl``) on both
sides is compared value by value; any other moved file, or one present on one side
only, is listed by name.  It always exits 0: it reports, it does not judge.
"""

from __future__ import annotations

import argparse
import json
import os
from collections import Counter

MISSING = object()  # the value of a path on the side that lacks it


def load(path: str):
    """The file's JSON value, the list of its records for a ``.jsonl``
    file, or None when it is not JSON."""
    with open(path) as f:
        text = f.read()
    try:
        if path.endswith(".jsonl"):
            return [json.loads(line) for line in text.splitlines() if line.strip()]
        return json.loads(text)
    except ValueError:
        return None


def leaves(value, path: str = ""):
    """(path, value) for every scalar in ``value``, list indices as ``[]``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for item in value:
            yield from leaves(item, path + "[]")
    else:
        yield path, value


def paired_leaves(a, b, path: str = ""):
    """(path, base value, head value) over the union of both structures,
    with MISSING on the side that lacks a path."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            sub = f"{path}.{key}" if path else str(key)
            yield from paired_leaves(a.get(key, MISSING), b.get(key, MISSING), sub)
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            yield from paired_leaves(a[i] if i < len(a) else MISSING,
                                     b[i] if i < len(b) else MISSING, path + "[]")
    elif a is MISSING or b is MISSING:
        for sub, value in leaves(b if a is MISSING else a, path):
            yield (sub, MISSING, value) if a is MISSING else (sub, value, MISSING)
    else:
        yield path, a, b


def relative_change(a, b) -> float:
    if a == b or (a != a and b != b):  # equal, or both NaN
        return 0.0
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return 1.0
    rel = abs(a - b) / max(abs(a), abs(b))
    return rel if rel == rel else 1.0  # inf against a number, or NaN against one


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="golden directory of the base tree")
    parser.add_argument("head", help="golden directory of the head tree")
    args = parser.parse_args()
    names = sorted(set(os.listdir(args.base)) | set(os.listdir(args.head)))
    moved, unparsed = [], []
    paths: dict[str, list] = {}  # path -> [count, worst relative change, note]
    for name in names:
        a_path, b_path = os.path.join(args.base, name), os.path.join(args.head, name)
        if not (os.path.exists(a_path) and os.path.exists(b_path)):
            moved.append(name)
            unparsed.append(f"{name} ({'added' if os.path.exists(b_path) else 'removed'})")
            continue
        with open(a_path, "rb") as fa, open(b_path, "rb") as fb:
            if fa.read() == fb.read():
                continue
        moved.append(name)
        a, b = load(a_path), load(b_path)
        if a is None or b is None:
            unparsed.append(f"{name} (not JSON)")
            continue
        for path, va, vb in paired_leaves(a, b):
            one_side = va is MISSING or vb is MISSING
            rel = 1.0 if one_side else relative_change(va, vb)
            if rel:
                entry = paths.setdefault(path, [0, 0.0, ""])
                entry[0] += 1
                entry[1] = max(entry[1], rel)
                if one_side:
                    entry[2] = "added" if va is MISSING else "removed"
    prefixes = Counter(name.split("_")[0].split(".")[0] for name in moved)
    by_prefix = ", ".join(f"{count} {prefix}_*" for prefix, count in sorted(prefixes.items()))
    print(f"{len(moved)} of {len(names)} files moved" + (f": {by_prefix}" if moved else ""))
    for path, (count, worst, note) in sorted(paths.items()):
        print(f"  {path}: {count} moved, " + (note if note else f"worst relative change {worst:.3g}"))
    for name in unparsed:
        print(f"  file {name}")


if __name__ == "__main__":
    main()
