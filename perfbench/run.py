"""Benchmark runner for the multiloop library.

    python3 perfbench/run.py --workload factor_series --seed 1 --seconds 10 \
        --trace 0

Run from the root of a checkout; the library is imported from ``src/``
there and nowhere else.  One process, one thread, one closed-loop client:
the next job starts when the previous one has returned and been checked.

With ``--trace 0`` the run times whole rounds of the workload's job stream
until the summed job time reaches ``--seconds`` and reports the end-to-end
metrics.  With ``--trace 1`` it runs a fixed number of rounds twice, first
plain and then with every library layer wrapped in spans, and reports the
per-layer metrics.  The last line of stdout is the result object; the line
before it holds the context fields (machine, commit, digest, tail rank).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("scalars", "linalg", "rootsys", "chevalley", "grading",
           "lietorus", "elemgroup", "cocycle", "cli")
SETUP_REPEATS = 7
# Rounds of one traced run per 20 s of --seconds, at least one (each pass
# takes a few seconds on a 2-core Xeon).
TRACE_ROUNDS_PER_20S = {"factor_series": 6, "unipotent_exact": 16,
                        "structure_cli": 1, "cocycle_levels": 2}
TAIL_BEYOND = 10
# Seconds the reference probe takes at the reference machine speed (about
# the fast phases of a shared 2-core Xeon), and the seconds between speed
# samples during a long call.
P_REF = 5e-4
PROBE_PERIOD = 0.1


class LibraryMissing(Exception):
    pass


def import_library():
    """Import every multiloop module afresh from SRC."""
    for name in [n for n in sys.modules
                 if n == "multiloop" or n.startswith("multiloop.")]:
        del sys.modules[name]
    try:
        mods = {m: importlib.import_module("multiloop." + m) for m in MODULES}
    except ImportError as e:
        raise LibraryMissing("cannot import multiloop from %s: %s" % (SRC, e))
    where = Path(sys.modules["multiloop"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise LibraryMissing("multiloop was imported from %s, not %s"
                             % (where, SRC))
    return SimpleNamespace(**mods)


def reference_probe():
    """Wall time of a fixed pure-Python computation (about 0.5 ms)."""
    t0 = perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 150):
        x = Fraction(i % 7 - 3, i % 11 + 1)
        acc = acc + x * x
        table[(i % 13, i % 5)] = acc
    return perf_counter() - t0


class SpeedMeter:
    """Times calls and scales them to a fixed machine speed.

    The reference probe runs just before and just after the call and, from
    a SIGALRM handler, every PROBE_PERIOD seconds during it (no thread is
    started).  The scaled time of the call is its wall time, less the time
    spent in those probes, times P_REF over the mean probe time.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(reference_probe())
        self.spent += perf_counter() - t0

    def timed(self, fn):
        """(result, scaled seconds, wall seconds) of fn()."""
        self.samples, self.spent = [reference_probe()], 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = perf_counter() - t0 - self.spent
        self.samples.append(reference_probe())
        speed = sum(self.samples) / len(self.samples)
        return result, wall * P_REF / speed, wall


def run_rounds(meter, wl, lib, state, rng, seconds=None, rounds=None,
               tracer=None):
    """Closed loop over whole rounds.  Stops after `rounds` rounds, or at
    the end of the first round at which the summed scaled job time reaches
    `seconds`.  Returns one (scaled latency, wall latency, report, problem)
    per job, the number of rounds and the number of jobs in the first
    round."""
    records, busy, done, first = [], 0.0, 0, None
    for jobs in wl.rounds(lib, state, rng):
        for job in jobs:
            if tracer:
                tracer.job = len(records)
                tracer.active = True
            t0 = perf_counter()
            try:
                out, dt, wall = meter.timed(
                    lambda: wl.execute(lib, state, job))
                err = None
            except Exception:
                err = traceback.format_exc()
            if tracer:
                tracer.active = False
            if err is None:
                busy += dt
                try:
                    report, problem = wl.check(lib, state, job, out)
                except Exception:
                    report = "%s output unreadable" % job.kind
                    problem = traceback.format_exc()
            else:
                # no latency for a job that raised, but its time still
                # counts towards the end of the run
                busy += perf_counter() - t0
                dt = wall = float("nan")
                report, problem = "%s raised" % job.kind, err
            if problem:
                print("job %d (%s) failed: %s" % (len(records), job.kind,
                                                   problem), file=sys.stderr)
            records.append((dt, wall, report, problem))
        done += 1
        first = first or len(records)
        if (busy >= seconds) if rounds is None else (done >= rounds):
            return records, done, first


def digest(records):
    h = hashlib.sha256()
    for i, record in enumerate(records):
        h.update(("%d\t%s\n" % (i, record[2])).encode())
    return h.hexdigest()


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND jobs beyond it
    (fewer when the run has fewer than 2 * TAIL_BEYOND jobs), and that
    percentile and job count."""
    xs = sorted(latencies)
    beyond = min(TAIL_BEYOND, len(xs) // 2)
    return (xs[len(xs) - 1 - beyond], 100.0 * (len(xs) - beyond) / len(xs),
            beyond)


def latency_metrics(lats):
    """jobs/s, p50 ms, tail ms and tail rank over the jobs that returned."""
    lats = [x for x in lats if x == x]
    if not lats:
        raise SystemExit("no job of the run returned")
    t, pct, beyond = tail(lats)
    return (len(lats) / sum(lats), 1000 * statistics.median(lats),
            1000 * t, pct, beyond)


def load(wl):
    """The set-up that setup_s times: imports plus the shared objects."""
    lib = import_library()
    return lib, wl.setup(lib)


def untraced(meter, wl, rng, seconds):
    setups = []
    for _ in range(SETUP_REPEATS):
        (lib, state), dt, wall = meter.timed(lambda: load(wl))
        setups.append((dt, wall))
    records, rounds, first = run_rounds(meter, wl, lib, state, rng,
                                        seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    late = wl.finish(records)
    failed = sum(1 for r in records if r[3]) + len(late)
    jps, p50, tail_ms, pct, beyond = latency_metrics([r[0] for r in records])
    metrics = {name: {"value": value, "unit": unit} for name, value, unit in (
        ("jobs_per_s", jps, "jobs/s"),
        ("job_p50_ms", p50, "ms"),
        ("job_tail_ms", tail_ms, "ms"),
        ("setup_s", statistics.median(dt for dt, _ in setups), "s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("ok_share", 1 - failed / len(records), "ratio"))}
    wall = latency_metrics([r[1] for r in records])
    context = {"rounds": rounds, "jobs": len(records), "first_round": first,
               "tail_percentile": round(pct, 3), "tail_jobs_beyond": beyond,
               "wall_jobs_per_s": wall[0], "wall_job_p50_ms": wall[1],
               "wall_job_tail_ms": wall[2],
               "wall_setup_s": statistics.median(w for _, w in setups)}
    return records, late, metrics, context


def traced(meter, wl, seed, seconds, out_dir):
    rounds = max(1, TRACE_ROUNDS_PER_20S[wl.name] * seconds // 20)
    passes = []
    for trace_on in (False, True):
        lib = import_library()
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer, lib) if trace_on \
            else None
        tracer.active = trace_on    # set-up is traced too
        state = wl.setup(lib)
        tracer.active = False
        records, _, first = run_rounds(meter, wl, lib, state,
                                       make_rng(wl, seed), rounds=rounds,
                                       tracer=tracer if trace_on else None)
        if uninstall:
            uninstall()
        passes.append((records, tracer))
    (plain, _), (spanned, tracer) = passes
    late = wl.finish(plain + spanned)
    changed = sum(1 for a, b in zip(plain, spanned) if a[2] != b[2])
    if changed:
        late.append("%d reports changed under tracing" % changed)
    missing = tracing.silent_spans(tracer, wl.name)
    if missing:
        raise SystemExit("traced run: spans that never fired on %s: %s"
                         % (wl.name, ", ".join(missing)))
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / ("spans-%s-seed%d.jsonl" % (wl.name, seed)))
    jps = [latency_metrics([x[0] for x in r])[0] for r, _ in passes]
    metrics = tracing.per_layer_metrics(tracer, jps[1] / jps[0])
    context = {"rounds": rounds, "jobs": len(plain), "first_round": first,
               "jobs_per_s_untraced": jps[0], "jobs_per_s_traced": jps[1]}
    return plain + spanned, late, metrics, context


def make_rng(wl, seed):
    return random.Random("%s/%d" % (wl.name, seed))


def machine_context(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() \
                else "unknown"
        sha = ref
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu, "seed": seed,
            "src_lines": src_lines}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "multiloop" / "__init__.py").is_file():
        print("no library at %s" % SRC, file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("MULTILOOP_")]:
        del os.environ[key]     # the CLI reads its defaults from these
    sys.path.insert(0, str(SRC))
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    wl = WORKLOADS[args.workload](workdir)
    meter = SpeedMeter()
    try:
        if args.trace:
            records, late, metrics, ctx = traced(
                meter, wl, args.seed, args.seconds, ROOT / ".perfbench-out")
        else:
            records, late, metrics, ctx = untraced(
                meter, wl, make_rng(wl, args.seed), args.seconds)
    except LibraryMissing as e:
        print(e, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    for problem in late:
        print("check failed: %s" % problem, file=sys.stderr)
    failed = sum(1 for r in records if r[3]) + len(late)
    context = dict(machine_context(args.seed), workload=args.workload,
                   seconds=args.seconds, trace=args.trace,
                   report_digest=digest(records[:ctx["first_round"]]), **ctx)
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
