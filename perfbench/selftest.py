#!/usr/bin/env python3
"""Shows that every output check of the archive benchmark can fail.

Run from the repository root:

    python3 perfbench/selftest.py

For each check it runs a short benchmark with that check's output broken
on purpose (archive_bench --inject <check>: a flipped byte in the
benchmark's reference copy, a shard erased or rolled back on a node, a
ledger record edited, a renewal stopped early, ...) and passes only if the
run exits non-zero and names the check on stderr. The breakage is made in
the benchmark run's own data, never in the program's code.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (workload, injected fault, what stderr must name)
CASES = [
    ("small_cloud", "get_bytes", "CHECK FAILED: get_bytes"),
    ("small_cloud", "stored_ratio", "CHECK FAILED: stored_ratio"),
    ("small_cloud", "scrub_clean", "CHECK FAILED: scrub_clean"),
    ("small_cloud", "renew_generation", "CHECK FAILED: renew_stack"),
    ("small_cloud", "renew_generation", "CHECK FAILED: renew_generation"),
    ("small_cloud", "renew_differs", "CHECK FAILED: renew_differs"),
    ("small_cloud", "repair_count", "CHECK FAILED: repair_count"),
    ("small_cloud", "repair_slots", "CHECK FAILED: repair_slots"),
    ("small_cloud", "degraded_get", "CHECK FAILED: degraded_get"),
    ("small_cloud", "op_failure", "OP FAILED: archive.get"),
    ("small_cloud", "channel", "CHECK FAILED: channel"),
    ("small_cloud", "ledger_chain", "CHECK FAILED: ledger_chain"),
    ("lincos_refresh", "renew_generation", "CHECK FAILED: renew_generation"),
    ("lincos_refresh", "renew_differs", "CHECK FAILED: renew_differs"),
    ("lincos_refresh", "repair_count", "CHECK FAILED: repair_count"),
    ("lincos_refresh", "repair_slots", "CHECK FAILED: repair_slots"),
]


def main():
    bad = 0
    for workload, inject, expect in CASES:
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "1", "--seconds", "0", "--trace", "0",
             "--inject", inject],
            cwd=ROOT, capture_output=True, text=True)
        ok = p.returncode != 0 and expect in p.stderr
        bad += not ok
        print("%-5s %-15s --inject %-17s exit %d, expects '%s'" % (
            "ok" if ok else "FAIL", workload, inject, p.returncode, expect))
    print("%d of %d checks shown able to fail" % (len(CASES) - bad,
                                                   len(CASES)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
