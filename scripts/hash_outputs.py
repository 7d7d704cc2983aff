#!/usr/bin/env python3
"""Print the SHA-256 of every file a `sentigan run` writes on a benchmark
workload, so that two checkouts can be compared with one diff.

Run from any directory:

    python3 scripts/hash_outputs.py --workload fleet --seed 1 > a.txt

The inputs are written by perfbench.workloads.generate into a temporary
directory, `sentigan run` runs on them from this checkout's src/, and one
`sha256  path` line is printed per file under out/, sorted by path
relative to out/. Each models/*.json also gets a `sha256  path without stamp`
line: the hash of its payload without the "stamp" key, dumped with sorted
keys, so that a change to the stamp alone leaves those lines equal. The
run's own output goes to stderr. The exit code is the run's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS, generate  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="the workload's input seed")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        config = generate(args.workload, args.seed, ROOT, Path(tmp) / "inputs")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        code = subprocess.run([sys.executable, "-m", "sentigan.cli", "run", "--config",
                               str(config)], cwd=config.parent, env=env,
                              stdout=sys.stderr).returncode
        out = config.parent / "out"
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out)}")
            if path.parent.name == "models" and path.suffix == ".json":
                payload = json.loads(path.read_bytes())
                payload.pop("stamp", None)
                digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
                print(f"{digest}  {path.relative_to(out)} without stamp")
    return code


if __name__ == "__main__":
    sys.exit(main())
