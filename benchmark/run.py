"""End-to-end benchmark of the feyngen command line.

Usage, from the repository root:

    python3 benchmark/run.py --workload gen-table --seed 1 --seconds 40 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 40

With ``--trace 0`` every invocation is a fresh ``feyngen`` process, timed from
outside: one client, closed loop, one invocation at a time.  Each workload
alternates its full command ("main") with the same command reduced to its
trivial cell ("setup"); the seed fixes that interleaving and the order of the
workloads under ``all``.  The inputs themselves are fixed, because every
output is checked byte for byte against a SHA-256 digest recorded at the seed
commit (and, for ``eval-2label``, grade by grade against the independent
scalar recursion ``sigma_recursive``).

With ``--trace 1`` the workload is replayed in this process through the same
public functions the command handler calls, with a span around each call;
see ``tracing.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md for the
metric definitions and the predictions they are meant to test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"
MODEL = BENCH_DIR / "two_label_model.json"

#: The console entry point declared in pyproject.toml, run without installing.
ENTRY = "import sys; from feyngen.cli import main; sys.exit(main())"

#: Trivial-cell invocations per run; their median is ``setup_s``.
SETUP_RUNS = 11
#: The reference loop's size, and the time it is scaled to.  Every time
#: metric is reported in seconds of a machine that runs the loop in
#: REFERENCE_S: on a shared host whose speed drifts by up to 1.7x over minutes,
#: this keeps runs of the same code comparable.  NOTES.md has the measurements.
REFERENCE_ITERATIONS = 1_000_000
REFERENCE_S = 0.1
#: A single invocation is killed (and counted as failed) after this long.
INVOCATION_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    """A workload's command, its trivial-cell version, and the SHA-256 of the
    stdout of each at the seed commit.  NOTES.md says why each was chosen."""

    main: tuple[str, ...]
    main_digest: str
    setup: tuple[str, ...]
    setup_digest: str


_MODEL_ARGS = ("--model", str(MODEL))

WORKLOADS = {
    "gen-table": Workload(
        main=("generate", "--loops", "0-2", "--vertices", "1-4", "--externals", "x1,x2",
              "--format", "json"),
        main_digest="0b40452695eb86e725573ec514d15e5429525cef5d7ed8ce5372d2e83b2a75bf",
        setup=("generate", "--loops", "0", "--vertices", "1", "--externals", "x1,x2",
               "--format", "json"),
        setup_digest="43d2cdf1a50c73e1a6aec649e85dd160535970cf013b08bea0d67155e6475de5",
    ),
    "gen-pruned": Workload(
        main=("generate", "--loops", "0-2", "--externals", "a,b", "--min-valence", "3"),
        main_digest="43442c09dbaf227ebf8e2ae76bb16de94b4a620b88ea78b35e46407bcd943b98",
        setup=("generate", "--loops", "0", "--vertices", "1", "--externals", "a,b",
               "--min-valence", "3"),
        setup_digest="e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "eval-2label": Workload(
        main=("evaluate", *_MODEL_ARGS, "--loops", "3", "--vertices", "1-3", "--externals", "a,b"),
        main_digest="04313473878b2710b37422ed9c4402bdc41524a885100aeed5e9d2e969891412",
        setup=("evaluate", *_MODEL_ARGS, "--loops", "0", "--vertices", "1", "--externals", "a,b"),
        setup_digest="c353bc25a8f395199a21c5a06deafa3eee7d2890e28286d3d7054797fa4e221c",
    ),
}


class CheckFailed(Exception):
    """An output failed an exactness check."""


# ---------------------------------------------------------------------------
# running one invocation


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: str | None
    #: REFERENCE_S over the reference loop's time around this invocation.
    scale: float = 1.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONHASHSEED", None)  # hash randomisation stays on, as for users
    return env


def run_cli(argv: tuple[str, ...], check) -> Invocation:
    """Run ``feyngen <argv>`` in a fresh interpreter and check its stdout.

    Wall time spans fork to reap; CPU time and peak RSS are the child's own,
    from ``os.wait4``.  A run longer than INVOCATION_TIMEOUT_S is killed.
    """
    with tempfile.TemporaryFile(dir=WORK_DIR) as out, \
            tempfile.TemporaryFile(dir=WORK_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], cwd=ROOT,
                                env=_child_env(), stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, INVOCATION_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, None)
        if proc.returncode == -signal.SIGKILL:
            result.error = f"timeout after {INVOCATION_TIMEOUT_S:.0f} s"
        elif proc.returncode != 0:
            err.seek(0)
            tail = err.read().decode(errors="replace").strip().splitlines()[-1:]
            result.error = f"exit code {proc.returncode}: {' '.join(tail)}"
        else:
            out.seek(0)
            try:
                check(out.read())
            except CheckFailed as exc:
                result.error = str(exc)
        return result


def digest_check(expected: str):
    def check(stdout: bytes) -> None:
        got = hashlib.sha256(stdout).hexdigest()
        if got != expected:
            raise CheckFailed(f"stdout digest {got[:16]}... differs from reference {expected[:16]}...")
    return check


def sigma_check():
    """Check every grade ``evaluate`` prints against ``sigma_recursive``.

    The scalar recursion never builds graphs, so it is independent of the
    generate-merge-evaluate path under test.  Computed once, before timing.
    """
    from feyngen import Monomial, load_model, sigma_recursive

    model = load_model(MODEL)
    externals = Monomial(("a", "b"))
    grades = {v: sigma_recursive(model, 3, v, externals) for v in (1, 2, 3)}
    expected = {f"sigma[l=3,v={v}](a*b)": value for v, value in grades.items()}
    expected["sigma[l=3](a*b)"] = sum(grades.values())

    def check(stdout: bytes) -> None:
        printed = {}
        for line in stdout.decode().splitlines():
            key, _, value = line.partition(" = ")
            try:
                printed[key] = Fraction(value)
            except ValueError:
                raise CheckFailed(f"unparsable grade line {line!r}") from None
        if printed != expected:
            raise CheckFailed(f"printed grades {printed} differ from sigma_recursive {expected}")
    return check


# ---------------------------------------------------------------------------
# one end-to-end run


def main_check(name: str):
    digest = digest_check(WORKLOADS[name].main_digest)
    if name != "eval-2label":
        return digest
    grades = sigma_check()

    def check(stdout: bytes) -> None:
        digest(stdout)
        grades(stdout)
    return check


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def reference_loop() -> float:
    """Seconds this process takes for a fixed pure-Python loop: the machine's
    current speed, independent of the code under test."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def measure(name: str, seconds: float, rng: random.Random) -> dict:
    """Time one workload for about ``seconds``; return its metrics and counts.

    The reference loop runs between consecutive invocations; each
    invocation's times are scaled by REFERENCE_S over the mean of the two
    loops around it, which removes much of the host's speed drift.
    """
    wl = WORKLOADS[name]
    check = main_check(name)
    setup_check = digest_check(wl.setup_digest)

    run_cli(wl.setup, setup_check)  # warm-up: fills the bytecode cache, not counted
    mains: list[Invocation] = []
    setups: list[Invocation] = []
    loops = [reference_loop()]
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        next_main = statistics.median(r.wall_s for r in mains) + loops[-1] if mains else 0.0
        main_fits = elapsed + next_main <= seconds
        if len(setups) < SETUP_RUNS and (not main_fits or rng.random() < 0.5):
            runs = setups
            runs.append(run_cli(wl.setup, setup_check))
        elif main_fits:
            runs = mains
            runs.append(run_cli(wl.main, check))
        else:
            break
        loops.append(reference_loop())
        runs[-1].scale = REFERENCE_S / ((loops[-2] + loops[-1]) / 2)

    errors = [r.error for r in mains + setups if r.error]
    good = [r for r in mains if not r.error] or mains
    good_setups = [r for r in setups if not r.error] or setups
    series = {
        "wall_s": ("s", [r.wall_s * r.scale for r in good], [r.wall_s for r in good]),
        "cpu_s": ("s", [r.cpu_s * r.scale for r in good], [r.cpu_s for r in good]),
        "peak_rss_mb": ("MB", [r.peak_rss_mb for r in good], [r.peak_rss_mb for r in good]),
        "setup_s": ("s", [r.wall_s * r.scale for r in good_setups],
                    [r.wall_s for r in good_setups]),
    }
    for metric, (unit, values, raw) in series.items():
        q1, med, q3 = quartiles(values)
        print(f"{name:14s} {metric:12s} median {med:9.4f} {unit:2s}  q1 {q1:9.4f}  "
              f"q3 {q3:9.4f}  max {max(values):9.4f}  n={len(values):<3d} "
              f"unscaled median {statistics.median(raw):9.4f}")
    print(f"{name:14s} reference loop median {statistics.median(loops):.4f} s "
          f"(REFERENCE_S {REFERENCE_S} s), n={len(loops)}")
    for error in errors:
        print(f"{name}: FAILED: {error}")
    return {
        "attempted": len(mains) + len(setups),
        "failed": len(errors),
        "metrics": {metric: {"value": statistics.median(values), "unit": unit}
                    for metric, (unit, values, _) in series.items()},
    }


def traced(name: str, passes: int = 2) -> dict:
    """Per-layer metrics from ``passes`` traced in-process replays of the
    workload, alternating with as many untraced in-process runs of the
    command itself, which give ``trace.overhead_s``."""
    from tracing import (EXACT_COUNTS, PER_LAYER, layer_metrics, spans_as_dicts,
                         traced_pass, untraced_pass)

    wl = WORKLOADS[name]
    check = main_check(name)
    errors = []
    untraced_walls, tracers, counts = [], [], []
    for run_id in range(passes):
        wall, code, untraced_stdout = untraced_pass(wl.main)
        if code != 0:
            errors.append(f"untraced pass {run_id}: exit code {code}")
        tr, pass_counts, traced_stdout = traced_pass(wl.main, run_id)
        for label, stdout in (("untraced", untraced_stdout), ("traced", traced_stdout)):
            try:
                check(stdout)
            except CheckFailed as exc:
                errors.append(f"{label} pass {run_id}: {exc}")
        untraced_walls.append(wall)
        tracers.append(tr)
        counts.append(pass_counts)
    for key in EXACT_COUNTS:
        seen = sorted({c[key] for c in counts})
        if len(seen) != 1:
            errors.append(f"count {key} differs between traced passes: {seen}")

    metrics = layer_metrics(tracers, counts[0])
    traced_wall = statistics.median(tr.spans[0].seconds for tr in tracers)
    untraced_wall = statistics.median(untraced_walls)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    spans_path = WORK_DIR / f"spans-{name}.json"
    spans_path.write_text(json.dumps(spans_as_dicts(tracers)))
    units = dict(PER_LAYER)
    for metric, value in metrics.items():
        print(f"{name:14s} {metric:32s} {value:14.6g} {units[metric]}")
    print(f"{name}: traced wall {traced_wall:.4f} s, untraced {untraced_wall:.4f} s, "
          f"spans in {spans_path.relative_to(ROOT)}")
    for error in errors:
        print(f"{name}: FAILED: {error}")
    return {
        "attempted": 2 * passes,
        "failed": len(errors),
        "metrics": {metric: {"value": metrics[metric], "unit": unit} for metric, unit in PER_LAYER},
    }


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "feyngen" / "cli.py").is_file():
        print(f"benchmark: no feyngen sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Children inherit the affinity, so the reference loop and the
    # invocations it scales run on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK_DIR.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng.shuffle(names)
    results = {name: traced(name) if args.trace else measure(name, args.seconds, rng)
               for name in names}

    if args.workload == "all":
        metrics = {f"{name}.{m}": value for name in WORKLOADS
                   for m, value in results[name]["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
