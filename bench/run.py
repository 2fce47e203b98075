"""Benchmark of the properk pipeline through its command-line entry point.

Run from the repository root:

    python3 bench/run.py --workload davis-dinf4 --seed 1 --seconds 36 --trace 0

Every job is one ``properk.cli.main(argv)`` call made in this process; jobs
run one after another (a closed loop with one caller).  A pass runs the
whole job list; passes repeat while another fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics with tracing off; its job times
are scaled to a nominal host speed sampled while they run (hostspeed.py),
and the raw seconds are printed beside them.  ``--trace 1``
alternates untraced and traced passes and reports per-layer self times and
exact counts (see tracer.py), the tracing overhead, and, for davis-dinf4,
the D_inf^5 frontier record.  It also tests the benchmark itself: exact
counts must repeat between traced passes, every rebound attribute must be
restored, and reports must not change between traced and untraced passes.

Every report is checked: exit status, the --check verdicts, models_agree,
and the SHA-256 of the report bytes where digests.json records one.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits nonzero, printing no
result, when the properk sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"

SETUP_SAMPLES = 15
TRACED_PASSES = 2  # at least this many traced and untraced passes in --trace 1
FRONTIER_CAP_BYTES = 3 << 30  # the cap ROADMAP's D_inf^5 target is stated under
FRONTIER_TIMEOUT_S = 60
# Spelled out because workloads.py imports properk, which set-up has to time.
WORKLOAD_NAMES = ("davis-dinf4", "amalgam-wide", "coxeter-corpus")

END_TO_END = {"setup_s": "s", "wall_norm_s": "s", "job_p50_norm_s": "s",
              "job_max_norm_s": "s", "peak_rss_mb": "MiB"}
# Layer metrics emitted in the JSON result.  coxeter.build_s and orbit.build_s
# are printed too, but each is structurally zero on some workload, so the
# result carries their sum, model.build_s.
PER_LAYER_TIMES = ("reprings.restriction_s", "bredon.assemble_s", "abelian.ddcheck_s",
                   "abelian.cohomology_s", "abelian.snf_s", "model.build_s",
                   "orbit.validate_s", "ahss.abutment_s", "cli.self_s", "trace.overhead_s")


@dataclass
class Outcome:
    latency: float
    code: int | None
    text: str
    error: Exception | None = None
    # Host-speed kernel times sampled during the job, and the factor that
    # turns its latency into one at the nominal host speed.
    samples: list[float] = field(default_factory=list)
    scale: float = 1.0


def import_cli():
    """Import properk from this checkout's src/, never from elsewhere."""
    if not (SRC / "properk" / "__init__.py").is_file():
        raise SystemExit(f"bench: no properk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from properk import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported properk from {cli.__file__}, not from {SRC}")
    return cli


def run_job(cli, job, speed: HostSpeed | None = None) -> Outcome:
    out = io.StringIO()
    code = error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(job.argv))
    except Exception as exc:  # a crash fails the job, not the benchmark
        error = exc
    end = perf_counter()
    outcome = Outcome(end - start, code, out.getvalue(), error)
    if speed:
        # The host-speed samples taken during the job are not its time.
        outcome.samples = speed.between(start, end)
        outcome.latency -= sum(outcome.samples)
    return outcome


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def problem(job, outcome: Outcome, recorded: dict[str, str]) -> str | None:
    """Why this report is wrong, or None."""
    if outcome.error is not None:
        return f"raised {type(outcome.error).__name__}: {outcome.error}"
    if outcome.code != 0:
        return f"exit status {outcome.code}"
    report = json.loads(outcome.text)
    if "error" in report:
        return f"error object {report['error']}"
    verdicts = report.get("verdicts")
    if not verdicts:
        return "no --check verdicts"
    bad = [v["degree"] for v in verdicts if v["verdict"] == "MISMATCH"]
    if bad:
        return f"MISMATCH in degrees {bad}"
    if "--model" in job.argv and job.argv[job.argv.index("--model") + 1] == "both" \
            and report.get("models_agree") is not True:
        return f"models_agree is {report.get('models_agree')}"
    want = recorded.get(job.name)
    if want is not None and want != digest(outcome.text):
        return "report digest differs from the recorded one"
    return None


def set_up(workload: str, seed: int):
    """Import properk, generate the job list and run one warm-up job."""
    start = perf_counter()
    cli = import_cli()
    import workloads

    make_jobs, warmup = workloads.WORKLOADS[workload]
    jobs = make_jobs(seed)
    outcome = run_job(cli, warmup)
    return perf_counter() - start, cli, jobs, warmup, outcome


def child(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          cwd=ROOT, capture_output=True, text=True, **kwargs)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = child("--setup-probe", "--workload", workload, "--seed", str(seed))
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def frontier_child() -> None:
    cli = import_cli()
    from workloads import FRONTIER

    outcome = run_job(cli, FRONTIER)
    if isinstance(outcome.error, MemoryError):
        status, detail = "oom", "MemoryError"
    else:
        detail = problem(FRONTIER, outcome, {})
        status = "error" if detail else "ok"
    print(json.dumps({"status": status, "detail": detail}))


def frontier_record() -> dict:
    """Run the frontier job in a child process capped by RLIMIT_AS."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (FRONTIER_CAP_BYTES, FRONTIER_CAP_BYTES))

    start = perf_counter()
    try:
        proc = child("--frontier-child", preexec_fn=cap, timeout=FRONTIER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"status": "error", "detail": f"timeout after {FRONTIER_TIMEOUT_S} s",
                "elapsed_s": perf_counter() - start}
    elapsed = perf_counter() - start
    try:
        record = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        record = {"status": "error", "detail": f"exit {proc.returncode}: {tail[0]}"}
    record["elapsed_s"] = elapsed
    return record


@dataclass
class Pass:
    traced: bool
    outcomes: list[Outcome]
    times: dict[str, float] | None = None
    counts: dict[str, int] | None = None

    @property
    def wall(self) -> float:
        return sum(o.latency for o in self.outcomes)


def run_pass(cli, jobs, tracer=None, speed: HostSpeed | None = None) -> Pass:
    if tracer is None:
        outcomes = [run_job(cli, job, speed) for job in jobs]
        if speed:
            for o, scale in zip(outcomes, speed.end_pass([o.samples for o in outcomes])):
                o.scale = scale
        return Pass(False, outcomes)
    tracer.reset()
    tracer.install()
    try:
        outcomes = [run_job(cli, job) for job in jobs]
    finally:
        tracer.uninstall()
    tracer.counts["cli.report_bytes"] = sum(len(o.text.encode()) for o in outcomes)
    return Pass(True, outcomes, dict(tracer.times), dict(tracer.counts))


def run_passes(cli, jobs, seconds: float, tracer, speed) -> tuple[list[Pass], float]:
    """Passes while another one of the average length still fits in
    ``seconds``, at least one; with a tracer, untraced and traced passes
    alternate, ending on a traced one.  Also returns the peak RSS after the
    first pass: later passes reuse the heap the first one grew, and glibc
    raises its mmap threshold as blocks are freed, so the peak would creep
    with the number of passes."""
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(cli, jobs, tracer if traced else None, speed))
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is None:
            done = True
        else:
            done = traced and len(passes) >= 2 * TRACED_PASSES
        elapsed = perf_counter() - start
        if done and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, peak_rss_mb


def find_failures(jobs, warmup, warm: Outcome, passes: list[Pass]) -> list[tuple]:
    recorded = json.loads(DIGESTS.read_text())
    failures = []
    p = problem(warmup, warm, recorded)
    if p:
        failures.append((warmup, p))
    first = passes[0].outcomes
    for ps in passes:
        for job, outcome, reference in zip(jobs, ps.outcomes, first):
            p = problem(job, outcome, recorded)
            if p is None and outcome.text != reference.text:
                p = "report differs from the first pass's"
            if p:
                failures.append((job, p))
    return failures


def measure(workload: str, seed: int, seconds: float, trace: bool) -> None:
    setup_s, cli, jobs, warmup, warm = set_up(workload, seed)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    else:
        setup_samples = [setup_s] + [setup_probe(workload, seed)
                                     for _ in range(SETUP_SAMPLES - 1)]
    if trace:
        # No host-speed samples here: the tracer would charge them to a layer.
        passes, peak_rss_mb = run_passes(cli, jobs, seconds, tracer, None)
    else:
        with HostSpeed() as speed:
            passes, peak_rss_mb = run_passes(cli, jobs, seconds, None, speed)

    failures = find_failures(jobs, warmup, warm, passes)
    attempted = 1 + len(jobs) * len(passes)
    self_test = []
    traced_passes = [ps for ps in passes if ps.traced]
    if trace:
        if any(ps.counts != traced_passes[0].counts for ps in traced_passes):
            self_test.append("exact counts differ between traced passes")
        if tracer.unrestored:
            self_test.append(f"rebound attributes not restored: {tracer.unrestored}")

    print(f"workload {workload}, seed {seed}: {len(jobs)} jobs per pass, {len(passes)} passes "
          f"({'alternating untraced/traced' if trace else 'untraced'}), closed loop, one caller")
    print("pass walls (s): " + " ".join(f"{'T' if ps.traced else 'U'}{ps.wall:.3f}" for ps in passes))
    for job, p in failures:
        print(f"FAILED {job.name}: {p}\n  argv: {' '.join(job.argv)}")
    for msg in self_test:
        print(f"SELF-TEST FAILED: {msg}")
    print(f"fail_ratio {len(failures) / attempted:.4f} ({len(failures)} failed of {attempted} attempted)")

    if trace:
        metrics = layer_metrics(passes, traced_passes)
    else:
        metrics = end_to_end_metrics(setup_samples, passes, peak_rss_mb)
    if trace and workload == "davis-dinf4":
        rec = frontier_record()
        print(f"frontier D_inf^5 davis ko (address-space cap {FRONTIER_CAP_BYTES >> 20} MiB): "
              f"status {rec['status']}, {rec['elapsed_s']:.2f} s"
              + (f", {rec['detail']}" if rec.get("detail") else ""))
    print(json.dumps({"correct": not failures and not self_test, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def end_to_end_metrics(setup_samples: list[float], passes: list[Pass], peak_rss_mb: float) -> dict:
    def job_stats(scaled: bool) -> tuple[float, float, float]:
        lat = [[o.latency * (o.scale if scaled else 1.0) for o in ps.outcomes] for ps in passes]
        return (statistics.median(sum(p) for p in lat),
                statistics.median(statistics.median(p) for p in lat),
                statistics.median(max(p) for p in lat))

    wall, p50, slowest = job_stats(scaled=True)
    values = {"setup_s": statistics.median(setup_samples), "wall_norm_s": wall,
              "job_p50_norm_s": p50, "job_max_norm_s": slowest, "peak_rss_mb": peak_rss_mb}
    samples = sum(len(ps.outcomes) for ps in passes)
    notes = {"setup_s": f"median of {len(setup_samples)} set-ups",
             "wall_norm_s": f"median of {len(passes)} passes",
             "job_p50_norm_s": f"median job of each pass, median over passes; {samples} jobs",
             "job_max_norm_s": "slowest job per pass, median over passes",
             "peak_rss_mb": "ru_maxrss through set-up and the first pass"}
    for name, value in values.items():
        print(f"  {name:<15} {value:12.6f} {END_TO_END[name]:<5} ({notes[name]})")
    raw = job_stats(scaled=False)
    print("  raw seconds, not scaled to the nominal host speed: wall_s {:.6f}, job_p50_s {:.6f}, "
          "job_max_s {:.6f}".format(*raw))
    print("  host speed scale, median job of each pass: "
          + " ".join(f"{statistics.median(o.scale for o in ps.outcomes):.3f}" for ps in passes))
    return {name: {"value": value, "unit": END_TO_END[name]} for name, value in values.items()}


def layer_metrics(passes: list[Pass], traced: list[Pass]) -> dict:
    times = {name: statistics.median(ps.times[name] for ps in traced) for name in traced[0].times}
    times["model.build_s"] = statistics.median(
        ps.times["coxeter.build_s"] + ps.times["orbit.build_s"] for ps in traced)
    times["trace.overhead_s"] = (statistics.median(ps.wall for ps in traced)
                                 - statistics.median(ps.wall for ps in passes if not ps.traced))
    counts = traced[0].counts
    print(f"  per-layer self times, median of {len(traced)} traced passes:")
    for name, value in sorted(times.items()):
        print(f"  {name:<30} {value:12.6f} s")
    print("  exact counts per pass:")
    for name, value in counts.items():
        print(f"  {name:<30} {value:12d}")
    metrics = {name: {"value": times[name], "unit": "s"} for name in PER_LAYER_TIMES}
    metrics.update({name: {"value": value, "unit": "count"} for name, value in counts.items()})
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default="davis-dinf4")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--frontier-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        print(json.dumps({"setup_s": set_up(args.workload, args.seed)[0]}))
    elif args.frontier_child:
        frontier_child()
    else:
        measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
