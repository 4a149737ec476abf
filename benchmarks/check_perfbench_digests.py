"""Gate the repository benchmark's results against their pinned digests.

``perfbench/run.py`` prints one ``digest <workload>: <hex>`` line per
workload: a hash of every run's modelled results.  A change meant to
leave behaviour byte-identical (a pure speedup) must reproduce it.  This
checker runs ``perfbench/run.py --workload W --seed 0 --seconds 1`` for
every workload pinned in ``tests/fixtures/perfbench_digests.json`` and
fails unless the last output line reports ``"correct": true`` and
``"failed": 0`` and the digest equals the pinned one.

After an intentional change of the modelled results, rerun the four
workloads and commit their new digests to the fixture.

Usage::

    python benchmarks/check_perfbench_digests.py [--workload W ...]
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "perfbench_digests.json"


def check(workload: str, pinned: str) -> List[str]:
    """Run one workload; return its problems (empty when it passed)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1"],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = proc.stdout.splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        last = None
    if not isinstance(last, dict):
        return [f"no JSON summary line (exit {proc.returncode}): {proc.stderr[-500:]}"]
    problems = []
    if last.get("correct") is not True:
        problems.append(f"correct is {last.get('correct')!r}")
    if last.get("failed") != 0:
        problems.append(f"{last.get('failed')!r} failed runs")
    found = re.search(rf"^digest\s+{re.escape(workload)}: (\S+)", proc.stdout, re.M)
    digest = found.group(1) if found else None
    if digest != pinned:
        problems.append(f"digest {digest} != pinned {pinned}")
    return problems


def main(argv=None) -> int:
    pinned = json.loads(FIXTURE.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(pinned),
        help="check only this workload (repeatable; default: all pinned)",
    )
    args = parser.parse_args(argv)
    failed = 0
    for workload in args.workload or sorted(pinned):
        problems = check(workload, pinned[workload])
        print(f"{workload:12s} {'FAIL ' + '; '.join(problems) if problems else 'ok ' + pinned[workload]}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
