"""Write the reference outputs the benchmark judges ops against.

    python3 bench/make_reference.py

Stores ``reference/corpus.csv`` (the built-in suite's CSV, byte for byte)
and ``reference/digests.json`` (output digests of every ``scale_analysis``
and ``simulate`` op for seeds 0..31; cycle ops do not depend on the seed).
Run it only at a commit whose outputs are known good: the benchmark counts
any later difference as a failed op.
"""

import json
import sys

from run import OUT, fresh_import
from workloads import REFERENCE, ScaleAnalysis, Simulate

#: Seeds whose tree outputs get stored digests.
SEEDS = range(32)


def main() -> int:
    rd = fresh_import()
    REFERENCE.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    rd.cli.main(["suite", "--builtin", "--csv", str(REFERENCE / "corpus.csv")])
    digests = {}
    for seed in SEEDS:
        for make in (ScaleAnalysis, Simulate):
            workload = make(rd, seed, OUT)
            workload.digests = {}
            ops, _ = workload.run_pass(lambda: None)
            digests.update(workload.outputs)
            print(seed, make.__name__,
                  [(op.label, op.failures) for op in ops if op.failures],
                  file=sys.stderr)
    with open(REFERENCE / "digests.json", "w", encoding="ascii") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
