"""Record the reference documents the benchmark checks CLI output against.

Usage (from the root of a checkout): ``python3 perfbench/record_reference.py``

Runs every workload's CLI commands once on the default seed and writes
``perfbench/reference/<workload>.json``.  Record only from a commit whose
answers are trusted: later runs must reproduce these documents (see
checker.py for what must match exactly and what within a tolerance).
"""

from __future__ import annotations

import json
import sys

import checker
from run import REFERENCE_DIR, Bench
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        bench = Bench(workload, DEFAULT_SEED)
        bench.reference = None
        bench.run_round()
        if bench.failures:
            print("\n".join(bench.failures), file=sys.stderr)
            return 1
        documents = {}
        for key, doc in bench.docs.items():
            doc["metadata"]["graph"].pop("source", None)
            documents[key] = doc
        record = {
            "seed": DEFAULT_SEED,
            "rtol": checker.RTOL,
            "atol": checker.ATOL,
            "documents": documents,
        }
        path = REFERENCE_DIR / f"{workload.name}.json"
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(documents)} documents)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
