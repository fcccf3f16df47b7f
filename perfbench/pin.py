#!/usr/bin/env python3
"""Pin the output digests of the benchmark workloads in digests.json.

Run from the root of a checkout, for example::

    python3 perfbench/pin.py --seeds 0-31
    python3 perfbench/pin.py --seeds 0-31 --workloads gm_backtrack

Each (workload, seed) is swept once and must pass the invariant checks.  Its
digests replace the pinned entry.  Entries made under other Python or numpy
versions are dropped, because the digests hold only for the versions they
were made with.  Changing a pinned digest is a deliberate act: record why in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def _seeds(raw: str) -> list[int]:
    lo, _, hi = raw.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-31"), help="range such as 0-31")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS), help="comma list")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(run.SRC))
    env = run.environment()
    path = run.HERE / "digests.json"
    table = {"python": env["python"], "numpy": env["numpy"], "workloads": {}}
    if path.is_file():
        old = json.loads(path.read_text(encoding="utf-8"))
        if (old.get("python"), old.get("numpy")) == (env["python"], env["numpy"]):
            table = old
    for name in args.workloads.split(","):
        pinned = table["workloads"].setdefault(name, {})
        for seed in args.seeds:
            with run.Runner(name, seed, tiny=False, digests_path=None, env=env) as runner:
                done = runner.run()
            if done.failed:
                sys.stderr.write(f"{name} seed {seed}: outputs fail their checks: {done.failed}\n")
                return 1
            pinned[str(seed)] = done.digests
            print(f"{name} seed {seed}: {done.wall_s:.2f} s", flush=True)
        table["workloads"][name] = dict(sorted(pinned.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
