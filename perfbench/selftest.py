#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (about 20 s on 2 CPUs).

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, run.py is run on its ``--tiny`` spec
in both modes.  The test checks three things:

* every metric of BENCHMARK.json is printed with its unit;
* the correct digests pass;
* a tampered expected digest is counted in ``failed`` and gives exit code 1.

It prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / "selftest"


def bench(workload: str, trace: int, digests: Path) -> tuple[int, dict, dict]:
    """Run run.py on the tiny spec; returns (exit code, report, result)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--tiny", "--digests", str(digests)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = done.stdout.splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} printed no result (exit {done.returncode}):\n{done.stderr}")
    return done.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0

    def check(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        for wl in (w["name"] for w in spec["workloads"]):
            none = SCRATCH / "none.json"
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                code, report, result = bench(wl, trace, none)
                want = {m["name"]: m["unit"] for m in spec[group]}
                got = {k: v.get("unit") for k, v in result["metrics"].items()}
                check(code == 0 and result["correct"], f"{wl} trace={trace}: clean run is correct")
                check(got == want, f"{wl} trace={trace}: every {group} metric printed with its unit")
                check(report["digest_check"] == "unchecked", f"{wl} trace={trace}: no pinned digest -> unchecked")

            env = report["env"]
            table = {"python": env["python"], "numpy": env["numpy"], "workloads": {wl: {"0": report["digests"]}}}
            good = SCRATCH / "good.json"
            good.write_text(json.dumps(table), encoding="utf-8")
            code, report, result = bench(wl, 0, good)
            check(code == 0 and result["failed"] == 0 and report["digest_check"] == "passed",
                  f"{wl}: pinned digests pass")

            digest = table["workloads"][wl]["0"]["runs.csv"]
            table["workloads"][wl]["0"]["runs.csv"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
            bad = SCRATCH / "tampered.json"
            bad.write_text(json.dumps(table), encoding="utf-8")
            code, report, result = bench(wl, 0, bad)
            check(code == 1 and not result["correct"] and result["failed"] == len(report["passes"])
                  and report["digest_check"] == "failed",
                  f"{wl}: tampered runs.csv digest counted in failed ({result['failed']}/{result['attempted']})")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
