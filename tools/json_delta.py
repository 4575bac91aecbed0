"""Size the numeric differences between the JSON outputs of two runs.

Usage: python tools/json_delta.py BASE_DIR HEAD_DIR

For each *.json file in either directory whose bytes differ between the
two, it prints one Markdown table row: how many numbers the file holds,
how many of them differ, the largest absolute difference, the largest
relative difference |head - base| / |base|, and the largest absolute
difference over the largest |number| in the base file. A file missing on
one side, or whose structure or non-numeric values differ, is named as
such. The directories are typically two OUTDIRs of tools/output_hashes.py,
one run at the base commit and one at the head.
"""

import json
import math
import pathlib
import sys


def leaves(value):
    """The leaves of a parsed JSON value in document order, keys included."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from leaves(item)
    elif isinstance(value, list):
        yield "["
        for item in value:
            yield from leaves(item)
        yield "]"
    else:
        yield value


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def delta(base_path, head_path):
    """One table row for a file whose bytes differ."""
    name = base_path.name
    if not base_path.exists() or not head_path.exists():
        return f"| `{name}` | only at the {'head' if head_path.exists() else 'base'} | | | | |"
    try:
        base, head = (list(leaves(json.loads(p.read_text()))) for p in (base_path, head_path))
    except ValueError:
        return f"| `{name}` | not JSON | | | | |"
    if len(base) != len(head) or any(
            is_number(b) != is_number(h) or (not is_number(b) and b != h)
            for b, h in zip(base, head)):
        return f"| `{name}` | structure differs | | | | |"
    pairs = [(b, h) for b, h in zip(base, head) if is_number(b)]
    differ = [(b, h) for b, h in pairs if not (b == h or (b != b and h != h))]
    largest = max((abs(b) for b, _ in pairs), default=0.0)
    abs_diff = max((abs(h - b) for b, h in differ), default=0.0)
    rel_diff = max((abs(h - b) / abs(b) if b else math.inf for b, h in differ), default=0.0)
    of_largest = abs_diff / largest if largest else math.inf
    return (f"| `{name}` | {len(pairs)} | {len(differ)} | {abs_diff:.3g} | {rel_diff:.3g} "
            f"| {of_largest:.3g} |")


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    base_dir, head_dir = (pathlib.Path(a) for a in argv)
    names = sorted({p.name for d in (base_dir, head_dir) for p in d.glob("*.json")})
    rows = [delta(base_dir / n, head_dir / n) for n in names
            if not ((base_dir / n).exists() and (head_dir / n).exists()
                    and (base_dir / n).read_bytes() == (head_dir / n).read_bytes())]
    print("## Numbers in the JSON outputs that differ from the base commit\n")
    if not rows:
        print("None: every JSON output is byte-identical.")
        return
    print("| file | numbers | differ | largest abs. difference | largest rel. difference "
          "| abs. difference / largest abs. value |")
    print("| --- | --- | --- | --- | --- | --- |")
    print("\n".join(rows))


if __name__ == "__main__":
    main(sys.argv[1:])
