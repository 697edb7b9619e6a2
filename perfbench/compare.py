"""Compare two results written by ``run.py --out``.

Usage: python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both results and their ratio.  Results from different
workloads, trace modes or kernel paths (numba against numpy) are reported
as not comparable, with exit code 1.
"""

import json
import sys


def comparable(base, new):
    """(True, "") or (False, reason)."""
    for key, what in (("workload", "workloads"), ("trace", "trace modes")):
        if base[key] != new[key]:
            return False, f"{what} differ: {base[key]} vs {new[key]}"
    kb, kn = base["environment"]["kernel_path"], new["environment"]["kernel_path"]
    if kb != kn:
        return False, f"kernel paths differ: {kb} vs {kn}"
    return True, ""


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2])
    with open(argv[0]) as fh:
        base = json.load(fh)
    with open(argv[1]) as fh:
        new = json.load(fh)
    ok, reason = comparable(base, new)
    if not ok:
        print(f"not comparable: {reason}")
        return 1
    print(f"{'metric':<44}{'base':>16}{'new':>16}{'new/base':>10}")
    for name, entry in sorted(base["metrics"].items()):
        b = entry["value"]
        n = new["metrics"].get(name, {}).get("value")
        ratio = f"{n / b:.3f}" if n is not None and b else "-"
        print(f"{name:<44}{b:>16.6g}{n if n is None else format(n, '.6g'):>16}"
              f"{ratio:>10}  {entry['unit']}")
    print(f"failed operations: {base['failed']} -> {new['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
