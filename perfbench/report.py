"""Print every metric, by name and unit, of the latest run of each workload.

    python3 perfbench/report.py

Reads the result files that perfbench/run.py leaves in perfbench/.work/
results (one per workload and trace setting).
"""

import glob
import json
import os
import sys

RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       ".work", "results")


def main():
    paths = sorted(glob.glob(os.path.join(RESULTS, "*.json")))
    if not paths:
        print(f"no results under {RESULTS}; run perfbench/run.py first",
              file=sys.stderr)
        return 1
    for path in paths:
        with open(path) as fh:
            r = json.load(fh)
        res = r["result"]
        print(f"== {r['workload']}  seed {r['seed']}  "
              f"{'per-layer (traced)' if 'trace1' in path else 'end-to-end'}"
              f"  correct={res['correct']}  attempted={res['attempted']}"
              f"  failed={res['failed']}")
        print("   " + json.dumps(r["environment"], sort_keys=True))
        for line in r["failures"]:
            print(f"   failure: {line}")
        for name, m in res["metrics"].items():
            n = len(r["samples"].get(name, ())) or 1
            print(f"   {name:36s} {m['value']:16.6g} {m['unit']:8s} n={n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
