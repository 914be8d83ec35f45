#!/usr/bin/env python3
"""Run the suite's Hypothesis properties at fresh seeds and list each failure.

    python tools/hypothesis_scan.py SEED [SEED ...]
    python tools/hypothesis_scan.py $(seq 0 19)

A plain pytest run loads tests/conftest.py's "tier1" profile, which
derandomizes every property: each run draws the same examples, chosen by a
hash of the test function. This tool explores beyond them. For each seed it
runs the tests that pytest marks `hypothesis` (every @given test) under the
"scan" profile with `--hypothesis-seed=SEED`, in a pytest process of its
own, and prints every failing test with that seed. Each test draws from
the seed alone, so one failure replays with

    python -m pytest --hypothesis-profile=scan --hypothesis-seed=SEED TEST_ID

The exit status is 1 if any seed found a failure, 2 if pytest could not
run, else 0.
"""
from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def scan(seed: int) -> list[str]:
    """The ids of the property tests that fail at this seed."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-m", "hypothesis", "-rfE", "--hypothesis-profile=scan",
         f"--hypothesis-seed={seed}", "tests"],
        cwd=REPO, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        sys.stdout.write(done.stdout + done.stderr)
        sys.exit(f"seed {seed}: pytest exited {done.returncode}")
    return [line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in done.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", help="seeds to scan")
    args = parser.parse_args()
    failures = 0
    for seed in args.seeds:
        failed = scan(seed)
        failures += len(failed)
        for test_id in failed:
            print(f"seed {seed}: FAILED {test_id}")
        print(f"seed {seed}: {len(failed)} failed", flush=True)
    print(f"{failures} failure(s) over {len(args.seeds)} seed(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
