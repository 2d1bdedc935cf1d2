"""fthresh benchmark: seeded questions posed to the CLI in a closed loop.

    python3 perfbench/run.py --workload thresholds --seed 1 --seconds 50 --trace 0

One process, one thread: each question is one ``fthresh`` CLI invocation
made in-process through ``fthresh.cli.main(argv)`` with stdout captured,
and the next question is sent only when the previous one has returned.
Rounds of questions (see ``workloads.py``) are posed until ``--seconds``
have passed; the round under way is finished, so every run poses whole
rounds.  After the timed phase every answer is checked (``checks.py``).

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run is traced
(``tracing.py``) and the metrics are the per-layer ones, including the
tracing overhead, measured by replaying the same rounds untraced in a
fresh interpreter.  Failing questions are listed by argv before it.

``--corrupt`` is the negative control: it makes the first answer of the
run wrong before checking, and the run must then report one more failed
question and ``"correct": false``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import tracing
from workloads import WORKLOADS, Generator, SpaceExhausted

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 6  # before the timed phase, and as many again after it


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt", action="store_true", help="negative control: corrupt the first answer")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--replay", type=int, metavar="ROUNDS", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def ask(cli, argv) -> tuple[float, str, str | None]:
    """Pose one question; return (seconds, stdout, error or None)."""
    buf = io.StringIO()
    err = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        if rc != 0:
            err = f"exit code {rc}"
    except SystemExit as exc:  # argparse usage errors
        err = f"usage error (exit {exc.code})"
    except Exception as exc:  # noqa: BLE001 - a crash is a result to report
        err = f"{type(exc).__name__}: {str(exc)[:120]}"
    return time.perf_counter() - t0, buf.getvalue(), err


def timed_phase(cli, gen, first_round, seconds, rounds=None):
    """Pose whole rounds until the time (or the round count) is used up,
    or until a slot has no unposed question left."""
    results = []
    batch, k = first_round, 0
    start = time.perf_counter()
    while True:
        for q in batch:
            results.append((q, *ask(cli, q.argv)))
        k += 1
        if (k >= rounds) if rounds is not None else (time.perf_counter() - start >= seconds):
            break
        try:
            batch = gen.round(k)
        except SpaceExhausted as exc:
            print(f"warning: timed phase ends early, question space exhausted: {exc}", file=sys.stderr)
            break
    return results, time.perf_counter() - start, k


def check_all(results, corrupt):
    """Return (latencies of good answers, failures as (argv, reason),
    number of failed checks)."""
    import checks  # imports fthresh, so only once src/ is on the path

    bad_oracles = oracles.self_test()
    if bad_oracles:
        raise SystemExit("oracle self-test failed: " + "; ".join(bad_oracles))
    good, failures, wrong = [], [], 0
    for i, (q, seconds, out, err) in enumerate(results):
        if err is not None:
            failures.append((q.argv, err))
            continue
        try:
            answer = json.loads(out)
            if corrupt and i == 0:
                checks.corrupt(answer)
            reason = checks.CHECKS[q.kind](q, answer)
        except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failed check
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None:
            good.append(seconds)
        else:
            wrong += 1
            failures.append((q.argv, "wrong answer: " + reason))
    return good, failures, wrong


def child(args, *extra) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)


def setup_samples(args) -> list[float]:
    """Seconds from the start of a fresh interpreter to fthresh imported
    and the first round of argv generated, once per interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        child(args, "--setup-only")
        samples.append(time.perf_counter() - t0)
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fthresh" / "__init__.py").is_file():
        print(f"error: no fthresh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import fthresh.cli as cli

    gen = Generator(args.workload, args.seed)
    first_round = gen.round(0)
    if args.setup_only:
        return 0

    # Set-up is sampled on both sides of the timed phase, so its median
    # spans the run rather than one moment of the machine's speed.
    setup = setup_samples(args) if not args.trace and args.replay is None else []
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        results, wall, rounds = timed_phase(cli, gen, first_round, args.seconds, args.replay)
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.replay is not None:
        print(json.dumps({"wall_s": wall, "rounds": rounds}))
        return 0

    good, failures, wrong = check_all(results, args.corrupt)
    for argv_, reason in failures:
        print(f"FAILED {reason} :: fthresh {shlex.join(argv_)}")

    metrics = {}
    if tracer is None:
        if len(good) < 2:
            raise SystemExit(f"error: {len(good)} correct answers, too few for latency percentiles")
        if len(good) < 100:
            print(f"warning: {len(good)} correct answers; the 90th percentile needs 100", file=sys.stderr)
        deciles = statistics.quantiles(good, n=10)
        metrics["questions_per_s"] = (len(good) / wall, "questions/s")
        metrics["question_ms_p50"] = (1000 * statistics.median(good), "ms")
        metrics["question_ms_p90"] = (1000 * deciles[8], "ms")
        metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
        metrics["setup_s"] = (statistics.median(setup + setup_samples(args)), "s")
    else:
        metrics.update(tracing.layer_metrics(tracer))
        replay = json.loads(child(args, "--replay", str(rounds)).stdout.strip().splitlines()[-1])
        metrics["trace.overhead_s"] = (wall - replay["wall_s"], "s")
        metrics["trace.spans"] = (len(tracer.name), "count")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"spans-{args.workload}-{args.seed}"))

    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": len(results),
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
