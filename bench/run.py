"""dgspec benchmark: seeded workloads through the public CLI entry point.

    python3 bench/run.py --workload spectral --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; dgspec is imported from ``src/``.
One client in this process calls ``dgspec.cli.main(argv)`` for each job
of the workload, back to back (a closed loop), with stdout captured, and
repeats the whole job list in passes while the next pass fits in
``--seconds``.  Every output is checked (see ``oracle.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes (see ``tracing.py``), and reports the
per-layer metrics and the tracing overhead.  The last stdout line is the
JSON result; lines before it are a readable report.
"""

from __future__ import annotations

import os

# One BLAS thread: the load is a single client, and toughness pool workers
# already take every core.  Must be set before numpy is imported.
_BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _BLAS_THREADS

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import corpus
import oracle
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 15

# Sampled sweeps at n >= 64 crash: they draw uint64 masks beyond the
# type's range.  Those jobs run once per mixing_sampled run as an untimed
# probe, so the defect shows in every report without failing timed jobs.
KNOWN_PROBE_DEFECT = "ValueError: high is out of bounds for uint64"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics in BENCHMARK.json: every workload calls these layers,
# so each reads nonzero on every workload.
_FN_SECONDS = (
    "cli.main", "graph.parse_edge_list", "graph.is_strongly_connected", "graph.period",
    "linalg.eigendecompose_nonsymmetric", "linalg.invert", "linalg.operator_norm",
    "markov.build_transition_matrix", "markov.stationary_distribution",
    "markov.spectral_profile", "reports.render")
PER_LAYER = (
    [(f"{fn}.s", "s") for fn in _FN_SECONDS]
    + [(f"{fn}.self_s", "s") for fn in ("cli.main", "markov.spectral_profile")]
    + [(f"{layer}.self_s", "s") for layer in ("graph", "linalg", "markov", "reports")]
    + [(f"{fn}.calls", "count") for fn in ("linalg.eigendecompose_nonsymmetric",
                                           "linalg.invert", "linalg.operator_norm")]
    + [("linalg.eig_residual_rel.max", "ratio"),
       ("reports.render.bytes", "bytes"),
       ("trace.overhead_s", "s")]
)
# Metrics of the layers only some workloads call: report lines only, since
# they read 0 on the other workloads.
WORKLOAD_LAYER = [
    ("mixing.verify_eml.s", "s"), ("mixing.verify_eml.self_s", "s"), ("mixing.self_s", "s"),
    ("mixing.pairs", "count"), ("mixing.pairs_per_s", "pairs/s"),
    ("toughness.exact_toughness.s", "s"), ("toughness.toughness_spectral_bound.s", "s"),
    ("toughness.compare_bounds.self_s", "s"), ("toughness.self_s", "s"),
    ("graph.scc_count_masked.one_worker.s", "s"),
    ("graph.scc_count_masked.one_worker.calls", "count"),
]

# The traced passes' layer self times must cover this share of their wall
# time; the rest is harness time outside ``cli.main``.
COVERAGE_TOLERANCE = 0.01


class BenchError(Exception):
    """The benchmark itself cannot run (not a failure of a dgspec job)."""


@dataclass
class Outcome:
    job: corpus.Job
    seconds: float
    code: int | None
    stdout: str
    error: str | None  # an exception that escaped cli.main
    scaled: float | None = None  # seconds at reference host speed (see ``scale``)


@dataclass
class Pass:
    wall: float
    outcomes: list[Outcome]
    spans: tuple[int, int] = (0, 0)
    counters: dict | None = None


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

# A shared host's speed drifts, by up to 2x within minutes, as other
# tenants load its cores and caches, so raw times of runs made minutes
# apart are not comparable.  A fixed kernel that does not call dgspec is
# timed before and after every timed job and setup sample, and each time
# is scaled by CALIBRATION_REF_S over the mean of the two kernel times:
# the time it would take on a host that runs the kernel in
# CALIBRATION_REF_S.  The kernel is an interpreted loop: in trials its
# time rose and fell with dgspec's job times on every workload, while
# numpy array kernels slowed less than dgspec did when the host slowed.
CALIBRATION_REF_S = 0.04


def calibrate() -> float:
    """Seconds the calibration kernel takes now."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(200_000):
        acc += (i * 7) % 13
        table[i & 1023] = acc
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    return seconds * CALIBRATION_REF_S / ((before + after) / 2)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment(nproc: int) -> dict:
    cpu = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level in ("2", "3") and size:
            caches[f"L{level}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"nproc": nproc, "cpu": cpu, **caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": openblas, "blas_threads": _BLAS_THREADS,
            "DGSPEC_THREADS": os.environ["DGSPEC_THREADS"], "commit": _git_commit()}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def setup_sample(env: dict) -> float:
    """Wall time of one fresh ``python3 -m dgspec --help``: the import and
    parser construction every invocation pays."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "dgspec", "--help"], cwd=ROOT,
                          env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=60, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"`python3 -m dgspec --help` exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace').strip()}")
    return elapsed


def run_job(cli, job: corpus.Job, path: str) -> Outcome:
    argv = [arg.replace("{path}", path) for arg in job.argv]
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit from inside main
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed job, not a failed run
            last = traceback.extract_tb(exc.__traceback__)[-1]
            error = (f"{type(exc).__name__}: {exc} "
                     f"(at {Path(last.filename).name}:{last.lineno})")
    return Outcome(job, time.perf_counter() - t0, code, out.getvalue(), error)


def run_pass(cli, jobs, paths) -> Pass:
    t0 = time.perf_counter()
    outcomes = [run_job(cli, job, path) for job, path in zip(jobs, paths)]
    return Pass(time.perf_counter() - t0, outcomes)


def calibrated_pass(cli, jobs, paths) -> Pass:
    """A pass with the calibration kernel before the first job and after
    each job; its wall is the sum of the raw job times."""
    outcomes = []
    before = calibrate()
    for job, path in zip(jobs, paths):
        o = run_job(cli, job, path)
        after = calibrate()
        o.scaled = scale(o.seconds, before, after)
        outcomes.append(o)
        before = after
    return Pass(sum(o.seconds for o in outcomes), outcomes)


def calibrated_setup_sample(env: dict) -> tuple[float, float]:
    """(raw, scaled) seconds of one setup sample."""
    before = calibrate()
    raw = setup_sample(env)
    return raw, scale(raw, before, calibrate())


def repeat(budget: float, one_round):
    """Call ``one_round`` until the next call, if it took as long as the
    last one, would end past ``budget`` seconds; at least once."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rounds.append(one_round())
        now = time.perf_counter()
        if now - t0 + (now - r0) > budget:
            return rounds


def passes_and_setup(budget: float, cli, jobs, paths, env: dict):
    """Calibrated passes of the job list and ``SETUP_SAMPLES`` calibrated
    setup samples within ``budget`` seconds; at least one pass.  The
    samples are spread between the passes in proportion to the time used.
    Another pass starts while it and the samples still due would, at the
    last pass's speed, end within ``budget``."""
    setup_sample(env)  # warms the bytecode and page caches; not kept
    passes, setup, setup_time = [], [], 0.0
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        passes.append(calibrated_pass(cli, jobs, paths))
        last_pass = time.perf_counter() - p0
        due = math.ceil(SETUP_SAMPLES * (time.perf_counter() - t0) / budget)
        s0 = time.perf_counter()
        while len(setup) < min(due, SETUP_SAMPLES):
            setup.append(calibrated_setup_sample(env))
        setup_time += time.perf_counter() - s0
        left = SETUP_SAMPLES - len(setup)
        end = time.perf_counter() - t0 + last_pass + left * setup_time / len(setup)
        if end > budget:
            setup += [calibrated_setup_sample(env) for _ in range(left)]
            return passes, setup


def traced_pass(cli, jobs, paths, tracer: tracing.Tracer) -> Pass:
    lo = tracer.mark()
    tracer.install()
    try:
        p = run_pass(cli, jobs, paths)
    finally:
        tracer.uninstall()
    p.spans, p.counters = (lo, tracer.mark()), tracer.take_counters()
    return p


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

class Checker:
    """Reference data for every job and the check of one outcome."""

    def __init__(self, jobs: list[corpus.Job]):
        stored = oracle.load_references()
        self.spectral = {}
        self.stored = {}
        for job in jobs:
            digest = job.graph.digest
            self.spectral[digest] = oracle.spectral_reference(job.graph)
            if job.kind in oracle.STORED_KINDS:
                if digest not in stored:
                    raise BenchError(f"no stored reference for {job.name}; "
                                     "regenerate with `python3 bench/oracle.py`")
                self.stored[digest] = stored[digest]

    def problems(self, o: Outcome) -> list[str]:
        if o.error:
            return [f"raised {o.error}"]
        if o.code not in range(5):
            return [f"exit code {o.code!r} is outside the 0-4 contract"]
        try:
            out = json.loads(o.stdout)
        except ValueError:
            return [f"exit code {o.code}; stdout is not JSON"]
        g, digest = o.job.graph, o.job.graph.digest
        ref, stored = self.spectral[digest], self.stored.get(digest)
        try:
            if o.job.kind == "analyze":
                return oracle.check_analyze(g, o.code, out, ref)
            if o.job.kind == "eml_exhaustive":
                return oracle.check_eml(g, o.code, out, ref, stored, None)
            if o.job.kind == "eml_sample":
                return oracle.check_eml(g, o.code, out, ref, None, corpus.SAMPLE_PAIRS)
            return oracle.check_toughness(g, o.code, out, ref, stored)
        except (KeyError, TypeError, IndexError) as exc:
            return [f"malformed output ({type(exc).__name__}: {exc})"]


def failed_jobs(checker: Checker, passes: list[Pass]) -> dict[int, str]:
    """``id(outcome)`` -> report line for every failed job.  A job fails
    when it raises, exits outside the contract or with an unexpected code,
    or its output is wrong."""
    return {id(o): f"pass {i} {o.job.name}: {'; '.join(problems)}"
            for i, p in enumerate(passes) for o in p.outcomes
            if (problems := checker.problems(o))}


def probe_status(checker: Checker, outcome: Outcome) -> tuple[bool, str]:
    """A probe may reproduce the known defect, refuse with exit 3, or
    succeed with a correct output."""
    if outcome.error and outcome.error.startswith(KNOWN_PROBE_DEFECT):
        return True, f"known defect reproduced: {outcome.error}"
    if outcome.error is None and outcome.code == 3:
        return True, "refused with exit 3"
    problems = checker.problems(outcome)
    if problems:
        return False, "; ".join(problems)
    return True, "ok"


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def job_median_sum(passes: list[Pass], seconds) -> float:
    """The time of one pass: the sum over its jobs of each job's median
    time over the passes.  Steadier than the median pass wall when a run
    has only a few passes."""
    return sum(statistics.median(seconds(p.outcomes[i]) for p in passes)
               for i in range(len(passes[0].outcomes)))


def end_to_end(setup: list[tuple[float, float]], passes: list[Pass],
               rss_mb: float) -> dict:
    """The metrics, from times scaled to the reference host speed."""
    return {"setup_s": statistics.median(scaled for _raw, scaled in setup),
            "wall_s": job_median_sum(passes, lambda o: o.scaled),
            "job_s.p50": statistics.median(o.scaled for p in passes for o in p.outcomes),
            "peak_rss_mb": rss_mb}


def raw_end_to_end(setup: list[tuple[float, float]], passes: list[Pass]) -> dict:
    """The same medians from unscaled times, for the report."""
    return {"setup_s": statistics.median(raw for raw, _scaled in setup),
            "wall_s": job_median_sum(passes, lambda o: o.seconds),
            "job_s.p50": statistics.median(o.seconds for p in passes for o in p.outcomes)}


def pairs_per_second(passes: list[Pass], failed: dict[int, str]) -> float | None:
    pairs = seconds = 0.0
    for p in passes:
        for o in p.outcomes:
            if o.job.kind.startswith("eml") and id(o) not in failed and o.stdout:
                pairs += json.loads(o.stdout)["pair_count"]
                seconds += o.seconds
    return pairs / seconds if seconds else None


def per_layer(tracer: tracing.Tracer, traced: list[Pass], one_worker: Pass | None,
              overhead: float) -> tuple[dict, list[dict]]:
    summaries = []
    for p in traced:
        s = tracer.summarize(*p.spans)
        s.update(p.counters)
        s["mixing.pairs"] = s.get("mixing.pairs", 0.0)
        s["mixing.pairs_per_s"] = (s["mixing.pairs"] / s["mixing.verify_eml.s"]
                                   if s.get("mixing.verify_eml.s") else 0.0)
        summaries.append(s)
    solo = tracer.summarize(*one_worker.spans) if one_worker else summaries[0]
    metrics = {}
    for name, _unit in PER_LAYER + WORKLOAD_LAYER:
        if name.startswith("graph.scc_count_masked.one_worker."):
            metrics[name] = solo.get(name.replace(".one_worker", ""), 0.0)
        elif name == "trace.overhead_s":
            metrics[name] = overhead
        else:
            metrics[name] = statistics.median(s.get(name, 0.0) for s in summaries)
    return metrics, summaries


def print_table(title: str, rows) -> None:
    print(f"# {title}")
    for name, value, unit, note in rows:
        print(f"{name:44s} {value:>14s} {unit:8s} {note}")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare_env(nproc: int) -> dict:
    """Clear inherited DGSPEC_* overrides and pin the toughness pool to
    ``nproc`` workers through the environment (not ``--threads``)."""
    for key in [k for k in os.environ if k.startswith("DGSPEC_")]:
        del os.environ[key]
    os.environ["DGSPEC_THREADS"] = str(nproc)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_cli():
    sys.path.insert(0, str(SRC))
    import dgspec.cli
    if Path(dgspec.cli.__file__).resolve().parent != SRC / "dgspec":
        raise BenchError(f"imported dgspec from {dgspec.cli.__file__}, not from {SRC}")
    return dgspec.cli


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dgspec" / "__init__.py").is_file():
        print(f"bench: no dgspec sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = prepare_env(nproc)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"jobs-{args.workload}-", dir=OUT))
    try:
        return measure(args, nproc, env, workdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, nproc: int, env: dict, workdir: Path) -> int:
    print(f"# dgspec benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment: {json.dumps(environment(nproc))}")

    all_jobs = corpus.jobs(args.workload, args.seed)
    paths = []
    for i, job in enumerate(all_jobs):
        paths.append(str(workdir / f"{i:02d}.edges"))
        Path(paths[-1]).write_text(job.graph.text, encoding="utf-8")
    jobs = [j for j in all_jobs if not j.probe]
    job_paths = [p for j, p in zip(all_jobs, paths) if not j.probe]
    probes = [(j, p) for j, p in zip(all_jobs, paths) if j.probe]
    checker = Checker(all_jobs)
    print(f"# jobs per pass ({len(jobs)}): {', '.join(j.name for j in jobs)}")
    print(f"# load: closed loop, 1 client in 1 process, DGSPEC_THREADS={nproc}")

    cli = import_cli()
    smallest = min(range(len(jobs)), key=lambda i: jobs[i].graph.n)
    run_job(cli, jobs[smallest], job_paths[smallest])  # first-call costs
    calibrate()

    if args.trace:
        return measure_traced(args, cli, jobs, job_paths, checker)

    passes, setup = passes_and_setup(args.seconds, cli, jobs, job_paths, env)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = failed_jobs(checker, passes)
    probe_lines, probes_ok = [], True
    for job, path in probes:
        ok, status = probe_status(checker, run_job(cli, job, path))
        probes_ok &= ok
        probe_lines.append(f"# probe {job.name} (untimed): {status}")

    metrics = end_to_end(setup, passes, rss_mb)
    raw = raw_end_to_end(setup, passes)
    attempted = sum(len(p.outcomes) for p in passes)
    rate = pairs_per_second(passes, failed)
    units = dict(END_TO_END)
    notes = {"setup_s": f"median of {len(setup)} fresh `python3 -m dgspec --help`, "
                        "spread between passes",
             "wall_s": f"one pass of the job list: sum of job medians over {len(passes)} passes",
             "job_s.p50": f"median of {attempted} job times",
             "peak_rss_mb": "ru_maxrss of this process"}
    for name, value in raw.items():
        notes[name] += f"; unscaled {_fmt(value)} s"
    kernel = [CALIBRATION_REF_S * o.seconds / o.scaled
              for p in passes for o in p.outcomes]
    rows = [(name, _fmt(metrics[name]), units[name], notes[name]) for name, _ in END_TO_END]
    if rate is not None:
        rows.append(("pairs_per_s", _fmt(rate), "pairs/s",
                     "subset pairs / sweep-job seconds, successful jobs"))
    rows.append(("ops_failed_frac", _fmt(len(failed) / attempted), "ratio",
                 f"{len(failed)} failed / {attempted} attempted timed jobs"))
    print_table(f"end-to-end metrics: times scaled to a host that runs the "
                f"calibration kernel in {CALIBRATION_REF_S:g} s", rows)
    print(f"# calibration kernel around the jobs (s): median {_fmt(statistics.median(kernel))}, "
          f"range {_fmt(min(kernel))} to {_fmt(max(kernel))}")
    print(f"# pass walls, scaled (s): "
          f"{' '.join(_fmt(sum(o.scaled for o in p.outcomes)) for p in passes)}")
    print(f"# pass walls, unscaled (s): {' '.join(_fmt(p.wall) for p in passes)}")
    print(f"# setup samples, scaled (s), in order: "
          f"{' '.join(_fmt(scaled) for _raw, scaled in setup)}")
    for line in probe_lines + [f"# FAILED {line}" for line in failed.values()]:
        print(line)
    result = {"correct": not failed and probes_ok, "attempted": attempted,
              "failed": len(failed),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in END_TO_END}}
    print(json.dumps(result))
    return 0


def measure_traced(args, cli, jobs, job_paths, checker: Checker) -> int:
    """Untraced and traced passes alternate, so the overhead compares
    passes run close together in time."""
    tracer = tracing.Tracer()
    rounds = repeat(args.seconds, lambda: (run_pass(cli, jobs, job_paths),
                                           traced_pass(cli, jobs, job_paths, tracer)))
    untraced = [u for u, _ in rounds]
    traced = [t for _, t in rounds]
    one_worker = None
    if any(j.kind == "toughness" for j in jobs):
        # pool workers' spans stay in the workers: count masks in-process
        os.environ["DGSPEC_THREADS"] = "1"
        one_worker = traced_pass(cli, jobs, job_paths, tracer)
        os.environ["DGSPEC_THREADS"] = str(len(os.sched_getaffinity(0)))
    all_passes = untraced + traced + ([one_worker] if one_worker else [])
    failed = failed_jobs(checker, all_passes)
    traced_wall = statistics.median(p.wall for p in traced)
    untraced_wall = statistics.median(p.wall for p in untraced)
    overhead = traced_wall - untraced_wall
    metrics, summaries = per_layer(tracer, traced, one_worker, overhead)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
    tracer.dump(trace_file, [p.spans for p in traced]
                + ([one_worker.spans] if one_worker else []))

    notes = {"trace.overhead_s": f"traced wall_s {_fmt(traced_wall)} - untraced "
                                 f"{_fmt(untraced_wall)} (medians of {len(traced)} each)"}
    rows = [(name, _fmt(metrics[name]), unit, notes.get(name, ""))
            for name, unit in PER_LAYER]
    print_table(f"per-layer metrics: median of {len(traced)} traced passes", rows)
    print_table("layers only some workloads call (report lines; 0 where not called)"
                + ("; graph.scc_count_masked.one_worker.* from one extra traced pass "
                   "with DGSPEC_THREADS=1" if one_worker else ""),
                [(name, _fmt(metrics[name]), unit, "") for name, unit in WORKLOAD_LAYER])
    # every span descends from a cli.main span, so the layer self times add
    # up to the time inside cli.main; what the pass wall holds beyond that
    # is harness time the spans miss
    outside = [(p.wall - sum(s[f"{layer}.self_s"] for layer in tracing.LAYERS)) / p.wall
               for p, s in zip(traced, summaries)]
    verdict = "within" if max(map(abs, outside)) <= COVERAGE_TOLERANCE else "OUTSIDE"
    print(f"# per traced pass, the layer self times miss {_fmt(min(outside))} to "
          f"{_fmt(max(outside))} of the pass wall: {verdict} the tolerance of "
          f"{COVERAGE_TOLERANCE:g}")
    print(f"# spans written to {trace_file.relative_to(ROOT)}")
    for line in failed.values():
        print(f"# FAILED {line}")
    result = {"correct": not failed, "attempted": sum(len(p.outcomes) for p in all_passes),
              "failed": len(failed),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in PER_LAYER}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
