"""Benchmark of the seglimit command line, end to end and per module.

    python3 bench/run.py --workload {eps-2d,eps-1d,limit-2d} [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a source checkout (it needs ``src/seglimit`` and
``configs/``).  The workload's configs are generated from the shipped ones
with the seed, then its operations run as whole rounds until ``--seconds``
have passed: each operation is one CLI call in a fresh process, one after
another (a closed loop with a single client), followed by an independent
check of its outputs.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics from traced calls with
``--trace 1``.  ``wall_s`` and the per-layer metrics are medians over
rounds of a per-round sum (for ``setup_s``, of each call's spawn plus
``import seglimit.cli``), ``peak_rss_mb`` the median over rounds of the
largest call.  Every child runs with bytecode writing on and its bytecode
cache in ``.bench_work/pycache``, which an untimed warm-up import fills, so
set-up never depends on the caller's environment or on stale ``.pyc``
files in the source tree.  Per-call lines go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path

from checks import CheckFailed, Checker
from spans import METRICS, clock, coverage_problems, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, generate, slug

T_START = clock()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
# every run must end within 180 s; no round starts after this much time
# unless the previous one would still fit
RUN_BUDGET_S = 170.0
# every child gets this environment: bytecode is written, and read only
# from a cache of the benchmark's own that the warm-up import fills
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def spawn(cmd: list[str], log_path: Path, timeout: float) -> tuple[float, int, float]:
    """Run cmd to its end; return (spawn time, exit code, peak RSS in MB).

    The child is killed if it runs past ``timeout`` seconds.
    """
    t_spawn = clock()
    with log_path.open("wb") as fh:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(timeout, 0.1), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t_spawn, proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB


class Round:
    """The operations of one pass over a workload and their measurements."""

    def __init__(self):
        self.wall = self.setup = self.rss = 0.0
        self.layers = dict.fromkeys(METRICS, 0.0)
        self.attempted = self.failed = 0
        self.unexpected: list[str] = []


def run_round(workload, checker: Checker, cfg_dir: Path, rdir: Path, trace: bool) -> Round:
    rnd = Round()
    checker.limits.clear()
    for k, op in enumerate(workload.ops):
        out = rdir / f"{k:02d}-{slug(op.label)}"
        result = rdir / f"{k:02d}.json"
        argv = [op.sub, str(cfg_dir / f"{op.config}.cfg"), "--out", str(out), *op.args]
        cmd = [sys.executable, str(HERE / "call.py"), str(result), "1" if trace else "0", "--", *argv]
        t_spawn, rc, rss = spawn(cmd, rdir / f"{k:02d}.log", T_START + RUN_BUDGET_S - clock())
        rnd.attempted += 1
        rnd.rss = max(rnd.rss, rss)
        status = "ok"
        timing = ""
        try:
            res = json.loads(result.read_text()) if result.exists() else None
            if res is None:
                raise CheckFailed("exit", f"call ended with code {rc} and no result "
                                  f"(log: {(rdir / f'{k:02d}.log').read_text()[-400:]!r})")
            rnd.setup += res["imported"] - t_spawn
            rnd.wall += res["end"] - res["start"]
            timing = f"setup={res['imported'] - t_spawn:.3f} s wall={res['end'] - res['start']:.3f} s "
            if trace:
                for name, value in layer_metrics(res["spans"]).items():
                    rnd.layers[name] += value
                problems = coverage_problems(res["spans"]) + [f"untraced {m}" for m in res["missing"]]
                if problems:
                    rnd.unexpected.append(f"{op.label}: trace: {'; '.join(problems)}")
            checker.check(op, out, rc)
        except CheckFailed as exc:
            rnd.failed += 1
            if exc.check == op.known_fault:
                status = f"FAILED (known fault) {exc}"
            else:
                status = f"FAILED {exc}"
                rnd.unexpected.append(f"{op.label}: {exc}")
        except Exception:  # a check that cannot read the outputs is a failed operation
            tb = traceback.format_exc()
            log(tb)
            rnd.failed += 1
            status = "FAILED " + tb.strip().splitlines()[-1]
            rnd.unexpected.append(f"{op.label}: {status}")
        log(f"  {op.label:<36} rc={rc} {timing}rss={rss:.1f} MB  {status}")
    return rnd


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seglimit" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        log(f"error: {ROOT} is not a seglimit checkout (needs src/seglimit and configs/)")
        return 2
    workload = WORKLOADS[args.workload]
    wdir = WORK / args.workload
    shutil.rmtree(wdir, ignore_errors=True)
    cfg_dir = wdir / "configs"
    specs = generate(workload, args.seed, ROOT / "configs", cfg_dir)
    checker = Checker(specs)
    for spec in specs.values():
        log(f"{spec.name}: n={spec.n} eps={spec.epsilon:g} A={list(spec.A)} factors={list(spec.factors)}")

    # untimed warm-up: byte-compiles what changed into the benchmark's
    # bytecode cache and warms the file cache
    _, rc, _ = spawn([sys.executable, str(HERE / "call.py"), "--import-only"], wdir / "import.log", 60.0)
    if rc != 0:
        log(f"error: importing seglimit failed:\n{(wdir / 'import.log').read_text()}")
        return 2

    rounds: list[Round] = []
    t0 = clock()
    while True:
        rdir = wdir / f"round{len(rounds)}"
        rdir.mkdir()
        t_round = clock()
        log(f"round {len(rounds)} ({args.workload}, seed {args.seed}, trace {args.trace})")
        rnd = run_round(workload, checker, cfg_dir, rdir, bool(args.trace))
        rounds.append(rnd)
        if not rnd.unexpected:
            shutil.rmtree(rdir)
        now = clock()
        if now - t0 >= args.seconds or now + (now - t_round) > T_START + RUN_BUDGET_S:
            break

    unexpected = [u for r in rounds for u in r.unexpected]
    for u in unexpected:
        log(f"unexpected: {u}")
    med = {
        "wall_s": statistics.median(r.wall for r in rounds),
        "setup_s": statistics.median(r.setup for r in rounds),
        "peak_rss_mb": statistics.median(r.rss for r in rounds),
    }
    log(f"{len(rounds)} round(s): " + ", ".join(f"{k}={v:.4f}" for k, v in med.items()))
    if args.trace:
        metrics = {name: {"value": statistics.median(r.layers[name] for r in rounds),
                          "unit": "s" if name.endswith("_s") else "count"} for name in METRICS}
    else:
        metrics = {name: {"value": med[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": not unexpected,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
