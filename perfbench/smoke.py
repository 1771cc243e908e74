"""Smoke test of the benchmark itself, at reduced size.

    python3 perfbench/smoke.py [workload ...]

For each workload (all four by default) it runs ``run.py`` with
``--seconds 1`` and checks that:

- every end-to-end and every per-layer metric of BENCHMARK.json is emitted
  with its unit, and the run reports itself correct;
- two runs with the same seed give the same report digest, and two traced
  runs with the same seed give the same counts;
- a run with another seed gives another digest, so other inputs.

Takes a few minutes on a 2-core machine; prints one line per check and
exits 1 if any fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    if p.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (" ".join(cmd), p.returncode,
                                                 p.stderr[-2000:]))
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def main(argv):
    workloads = argv or [w["name"] for w in SPEC["workloads"]]
    failures = 0

    def check(ok, what):
        nonlocal failures
        failures += not ok
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)

    for wl in workloads:
        plain = [bench(wl, 1, 0), bench(wl, 1, 0)]
        other = bench(wl, 2, 0)
        traced = [bench(wl, 1, 1), bench(wl, 1, 1)]
        for kind, results in (("end_to_end", plain + [other]),
                              ("per_layer", traced)):
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            for ctx, res in results:
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                check(got == want, "%s: %s metrics with units (seed %d)"
                      % (wl, kind, ctx["seed"]))
                check(res["correct"] and res["failed"] == 0,
                      "%s: correct, %d attempted (seed %d, trace %d)"
                      % (wl, res["attempted"], ctx["seed"], ctx["trace"]))
        digests = {ctx["report_digest"] for ctx, _ in plain + traced}
        check(len(digests) == 1, "%s: one report digest for seed 1" % wl)
        check(other[0]["report_digest"] not in digests,
              "%s: seed 2 gives other inputs" % wl)
        counts = [{k: v["value"] for k, v in res["metrics"].items()
                   if v["unit"] == "count"} for _, res in traced]
        check(counts[0] == counts[1], "%s: traced counts repeat" % wl)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
