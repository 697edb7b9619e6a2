"""Record quotient_expected.json: the quotient_profile verdicts of every
approx_sweep configuration, computed by the program itself.

quotient_profile has no theoretical expectation, so this table is the one
expected output the benchmark takes from the program.  It was recorded at
the commit that added the benchmark; re-record it only on purpose, when a
change to quotient_profile is meant to change its verdicts.

Usage: python3 perfbench/record_quotient.py   (from the checkout root)
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import denseamalgam  # noqa: E402
import workloads  # noqa: E402


def main():
    sources = {key: denseamalgam.FiniteMetricSpace(doc["points"], doc["dist"])
               for key, doc in workloads._sources(random.Random(0)).items()}
    table = {}
    for tag, parts, depth, branching in workloads.sweep_configs():
        a = denseamalgam.build_approx([sources[p] for p in parts], depth,
                                      branching, float(workloads.SCALE))
        s = denseamalgam.as_regular_structure(a)
        table[tag] = workloads.quotient_summary(denseamalgam.quotient_profile(
            s, workloads.quotient_eps(parts)))
    with open(workloads.QUOTIENT_FILE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
