"""Record the output digests the benchmark's gate compares against.

    python3 perfbench/record.py

Run from the repository root on the commit whose outputs are the
reference.  Runs every workload once with --record and writes
perfbench/expected.json.  Oracle checks (golden charts, brute-force
carrier orders, eta mismatches) still apply while recording.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workload import WORKLOADS  # noqa: E402


def main() -> int:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH="src")
    expected = {}
    for name in WORKLOADS:
        out = subprocess.run([sys.executable, os.path.join(HERE, "workload.py"), name, "--record"],
                             env=env, capture_output=True, text=True, check=True).stdout
        rec = json.loads(out.strip().splitlines()[-1])
        bad = [j for j in rec["jobs"] if not j["ok"]]
        if bad:
            print("%s: failed jobs, nothing recorded: %s" % (name, bad), file=sys.stderr)
            return 1
        expected[name] = rec["digests"]
        print("%s: %d digests" % (name, len(rec["digests"])))
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
