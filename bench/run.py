"""Benchmark of jacobiforms: end-to-end metrics per workload, or a traced run
that reports metrics per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload registry-p12 --seed 0 --seconds 30 --trace 0

Workloads are `registry-p12`, `coeff-window` and `session` (see
bench/README.md).  Each pass of a workload runs in a fresh interpreter
(`bench/worker.py`), one at a time; passes repeat until `--seconds` have
been measured, and at least three times.  Before any timed pass the
bytecode of `src/` and `bench/` is compiled, and `JF_DEFAULT_PREC` is
removed from the children's environment.

Times are rescaled to a fixed machine speed (bench/reference.py): the speed
of a shared machine drifts by up to 2x within a run, so each worker samples
a fixed reference computation every 50 ms while it works and scales each
stretch of work by the reference's nominal over its measured time.

--trace 0 reports, over the passes of the run:
  wall_ref_s    median over passes of the time from the first request to
                the last certified answer, at the reference speed
  setup_s       median time from interpreter start until `jacobiforms` and
                its identity registry are imported, at the reference speed
                (sampled by the started interpreter right after the import),
                over fresh starts spread between the passes
  peak_rss_mib  median peak resident set of a pass
The record also keeps the measured (unscaled) times, and the request
latency p50 and p90, pooled over the passes, with their sample counts.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see bench/tracer.py), plus the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full record, with the samples and the
provenance (command, seed, git commit, Python version, nproc, CPU model),
goes to bench/out/, together with the spans of traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import NOMINAL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("registry-p12", "coeff-window", "session")
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
SETUP_STARTS_PER_PASS = 3
MIN_SETUP_STARTS = 15
MIN_PASSES = 3
# A started interpreter imports the package, notes the time, then samples
# the reference speed; the parent's clock is the same CLOCK_MONOTONIC.
SETUP_CODE = (
    "import time\nimport jacobiforms.identities\nimported = time.perf_counter()\n"
    "import sys\nsys.path.insert(0, {bench!r})\nfrom reference import reference_s\n"
    "print(imported, reference_s())\n"
)
# A run must end within 180 s; no pass may start or run past this.
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("JF_DEFAULT_PREC", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():  # a bare checkout has no history to name
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "command": [sys.executable] + sys.argv,
        "git_commit": commit,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def run_child(cmd, timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run with a kill timer in place of `timeout=`: with a
    timeout, wait() polls with sleeps of up to 50 ms, which rounds the
    measured time of a short child up to the next poll."""
    proc = subprocess.Popen(cmd, **kwargs)
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        timer.cancel()
    if killed.is_set():
        raise TimeoutError(f"{cmd[:3]} ran out of time")
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


class Runner:
    def __init__(self, workload: str, seed: int, scale: str):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.env = child_env()
        self.started = time.perf_counter()

    def _remaining(self) -> float:
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise TimeoutError("the run is out of time")
        return left

    def compile(self) -> None:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)],
                       env=self.env, check=True, stdout=subprocess.DEVNULL,
                       timeout=self._remaining())

    def setup_times(self, starts: int) -> list:
        """[measured s, s at the reference speed] of fresh starts."""
        code = SETUP_CODE.format(bench=str(BENCH))
        times = []
        for _ in range(starts):
            t0 = time.perf_counter()
            proc = run_child([sys.executable, "-c", code], self._remaining(), env=self.env,
                             stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"importing jacobiforms exited with {proc.returncode}")
            imported, ref = map(float, proc.stdout.split())
            times.append([imported - t0, (imported - t0) * NOMINAL_S / ref])
        return times

    def one_pass(self, spans_out=None) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--scale", self.scale]
        if spans_out is not None:
            cmd += ["--trace", "--spans-out", str(spans_out)]
        proc = run_child(cmd, self._remaining(), env=self.env, cwd=ROOT, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _checks(passes: list) -> tuple:
    """attempted and failed checks of the passes, plus one check that every
    pass of the run produced the same outputs."""
    attempted = sum(p["attempted"] for p in passes) + 1
    failed = sum(p["failed"] for p in passes) + (len({p["digest"] for p in passes}) != 1)
    return attempted, failed


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def median_of(passes: list, key: str) -> float:
    return statistics.median(p[key] for p in passes)


def end_to_end(runner: Runner, seconds: float, record: dict) -> tuple:
    setup, passes, latencies = [], [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(passes) < MIN_PASSES:
        setup += runner.setup_times(SETUP_STARTS_PER_PASS)
        passes.append(runner.one_pass())
        latencies += passes[-1]["latencies_ms"]
    setup += runner.setup_times(max(0, MIN_SETUP_STARTS - len(setup)))
    p90 = statistics.quantiles(latencies, n=10)[-1]
    values = {
        "wall_ref_s": median_of(passes, "norm_s"),
        "setup_s": statistics.median(ref for _, ref in setup),
        "peak_rss_mib": median_of(passes, "peak_rss_mib"),
    }
    record.update(passes=passes, setup_samples_s=setup,
                  wall_measured_median_s=median_of(passes, "wall_s"),
                  setup_measured_median_s=statistics.median(s for s, _ in setup),
                  request_p50_ms=statistics.median(latencies), request_p90_ms=p90,
                  request_samples=len(latencies), beyond_p90=sum(ms > p90 for ms in latencies))
    attempted, failed = _checks(passes)
    return attempted, failed, {k: _metric(v, END_TO_END[k]) for k, v in values.items()}


def traced(runner: Runner, seconds: float, record: dict) -> tuple:
    plain, spanned = [], []
    t0 = time.perf_counter()
    while not spanned or time.perf_counter() - t0 < seconds:
        plain.append(runner.one_pass())
        spans_out = OUT / f"spans-{runner.workload}-seed{runner.seed}-{len(spanned)}.jsonl.gz"
        spanned.append(runner.one_pass(spans_out))
    units = {name: m["unit"] for name, m in spanned[0]["layers"].items()}
    values, unrepeated = {}, []
    for name, unit in units.items():
        samples = [p["layers"][name]["value"] for p in spanned]
        if unit == "s":
            values[name] = statistics.median(samples)
        else:
            # counts, and ratios of counts, must repeat exactly
            values[name] = samples[0]
            if len(set(samples)) != 1:
                unrepeated.append(name)
    units["trace.overhead_s"] = "s"
    values["trace.overhead_s"] = median_of(spanned, "norm_s") - median_of(plain, "norm_s")
    record.update(untraced_passes=plain, traced_passes=spanned, unrepeated_counts=unrepeated)
    # the traced outputs must equal the untraced ones, and counts must repeat
    attempted, failed = _checks(plain + spanned)
    attempted, failed = attempted + 1, failed + bool(unrepeated)
    return attempted, failed, {k: _metric(v, units[k]) for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="jacobiforms benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few requests per pass, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "jacobiforms" / "__init__.py").is_file():
        print(f"bench: no jacobiforms package under {SRC}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.scale)
    runner.compile()
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, **provenance()}
    measure = traced if args.trace else end_to_end
    attempted, failed, metrics = measure(runner, args.seconds, record)
    record.update(attempted=attempted, failed=failed, fail_frac=failed / attempted,
                  metrics=metrics)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{args.workload} seed {args.seed}: {failed}/{attempted} checks failed; record in "
          f"{OUT / name}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
