"""Closed-loop benchmark of the biimplicit implicitization pipeline.

    python3 perfbench/run.py --workload square --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One process, one thread and one caller: the next operation starts when the
previous one returns.  The run builds its inputs from --seed, repeats whole
passes over the workload's operations for --seconds, then checks every
output with `check.py` outside the timed region.  Times are scaled to a
reference host speed (`speed.py`).  It prints one line per
metric and, as the last line, a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics of one traced pass with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import check
import workloads
from spans import PER_LAYER, Tracer
from speed import REF_S, Speed, burst_mean

# Pinned before numpy and its BLAS load: BIIMPLICIT_JOBS > 1 would time the
# process pool, and a BLAS thread pool would share the two cores.
for _var in ("BIIMPLICIT_JOBS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

OP_TIMEOUT_S = 60.0
# operations stop this long after start, so checks and output fit in 180 s
RUN_LIMIT_S = 150.0
SETUP_REPEATS = 5
# never used while tuning the benchmark; quote it next to any later claim
HELD_OUT_SEED = 20261017

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms.p50", "ms"),
    ("query_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("exact_ratio", "ratio"),
)

# prints the import time and the mean speed loop time around it
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from speed import burst_mean\n"
    "before = burst_mean()\n"
    "start = time.perf_counter()\n"
    "import biimplicit\n"
    "seconds = time.perf_counter() - start\n"
    "print(seconds, (before + burst_mean()) / 2)\n"
)


class OpTimeout(Exception):
    """An operation ran past its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Outcome:
    op: int
    start: float
    seconds: float
    status: str  # "ok", "timeout" or the exception raised
    # equation text or MacRae degree of an operation; index of a query
    product: object = None


@dataclass
class PassResult:
    wall: float
    ops: list[Outcome] = field(default_factory=list)
    queries: list[Outcome] = field(default_factory=list)


def timed(fn, deadline: float, speed):
    """(start, seconds, status, result) of fn() under the per-operation
    limit; seconds leave out the speed samples taken meanwhile."""
    start = perf_counter()
    spent = speed.spent
    limit = min(OP_TIMEOUT_S, deadline - start)
    if limit <= 0:
        return start, 0.0, "timeout", None
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        result = fn()
        status = "ok"
    except OpTimeout:
        result, status = None, "timeout"
    except Exception:  # one failed operation must not end the run
        result, status = None, traceback.format_exc(limit=-1).strip().splitlines()[-1]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return start, perf_counter() - start - (speed.spent - spent), status, result


class Runner:
    """Program inputs built from the operations, and one pass over them."""

    def __init__(self, ops, speed: Speed):
        from biimplicit import cli, matrixrep
        from biimplicit.parser import parse_poly
        from biimplicit.poly import Bidegree, Parametrization

        self.cli = cli
        self.matrixrep = matrixrep
        self.ops = ops
        self.speed = speed
        self.inputs = []
        for op in ops:
            strings = op.instance.strings()
            if op.kind == "oracle" or op.kind == "matrix":
                F = Parametrization.from_polys(parse_poly(s) for s in strings)
            else:
                F = None
            spec = cli.InputSpec(
                bidegree=Bidegree(*op.instance.bidegree),
                polynomials=strings,
                nu=Bidegree(*op.nu) if op.nu is not None else None,
                minors=op.minors,
            )
            self.inputs.append((spec, F))

    def _operation(self, k: int, tracer):
        op = self.ops[k]
        spec, F = self.inputs[k]
        if op.kind == "oracle":
            equation = self.matrixrep.interpolation_oracle(F, op.instance.image_degree)
            return equation, str(equation)
        report = self.cli.run_implicitize(spec, matrix_only=op.kind == "matrix")
        with tracer.span("cli.report_serialize") if tracer else contextlib.nullcontext():
            document = report.to_dict()
            json.dumps(document)
        if op.kind == "matrix":
            return report, document["summary"]["macrae_degree"]
        return report, document["equation"]

    def _query(self, k: int, product, query) -> bool:
        op = self.ops[k]
        if op.kind == "matrix":
            _, F = self.inputs[k]
            return self.matrixrep.rank_drop_check(product.matrix, F, trials=1, seed=query)
        equation = product if op.kind == "oracle" else product.equation
        return equation.evaluate(query) == 0

    def run_pass(self, deadline: float, tracer=None) -> PassResult:
        start = perf_counter()
        result = PassResult(wall=0.0)
        for k, op in enumerate(self.ops):
            if tracer:
                tracer.op = k
            begin, seconds, status, output = timed(
                lambda: self._operation(k, tracer), deadline, self.speed
            )
            product, summary = output if status == "ok" else (None, None)
            result.ops.append(Outcome(k, begin, seconds, status, summary))
            for j, query in enumerate(op.queries if status == "ok" else ()):
                begin, seconds, q_status, answer = timed(
                    lambda: self._query(k, product, query), deadline, self.speed
                )
                if q_status == "ok" and answer is not True:
                    q_status = "wrong: not on the surface"
                result.queries.append(Outcome(k, begin, seconds, q_status, j))
        result.wall = perf_counter() - start
        return result


def _medians_ms(outcomes, key, scale) -> list[float]:
    """Each operation's median time over the passes, in ms, each time
    multiplied by scale(start, end)."""
    samples: dict = {}
    for o in outcomes:
        factor = scale(o.start, o.start + o.seconds) if scale else 1.0
        samples.setdefault(key(o), []).append(o.seconds * factor)
    return [statistics.median(v) * 1000 for v in samples.values()]


def verdicts(ops, passes):
    """Check each distinct output once: {(op, product): (ok, exact, degree)}."""
    seen = {}
    for result in passes:
        for outcome in result.ops:
            key = (outcome.op, outcome.product)
            if outcome.status != "ok" or key in seen:
                continue
            op = ops[outcome.op]
            if op.kind == "matrix":
                degree = outcome.product
                seen[key] = (True, degree == op.instance.image_degree, degree)
            else:
                seen[key] = check.check_equation(outcome.product, op.instance)
    return seen


def environment(workload: str, seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "biimplicit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "biimplicit_jobs": os.environ["BIIMPLICIT_JOBS"],
        "op_timeout_s": OP_TIMEOUT_S,
    }


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload: str, seed: int, speed: Speed):
    """Median of SETUP_REPEATS imports, each in a fresh interpreter (a process
    imports a module once), plus the median in-process generation of the
    instances and the program inputs.  Each is scaled by bursts of the speed
    loop around it.  Returns (scaled setup_s, unscaled setup_s, Runner)."""
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(SRC)],
            capture_output=True, text=True, timeout=60, cwd=ROOT, check=True,
        )
        seconds, loop_s = map(float, probe.stdout.split())
        imports.append((seconds, REF_S / loop_s))
    sys.path.insert(0, str(SRC))
    import biimplicit

    if Path(biimplicit.__file__).resolve().parent != SRC / "biimplicit":
        raise RuntimeError(f"imported biimplicit from {biimplicit.__file__}")
    for _ in range(SETUP_REPEATS):
        before = burst_mean()
        start = perf_counter()
        runner = Runner(workloads.generate(workload, seed), speed)
        seconds = perf_counter() - start
        builds.append((seconds, REF_S / ((before + burst_mean()) / 2)))
    scaled = sum(statistics.median(x * k for x, k in part) for part in (imports, builds))
    raw = sum(statistics.median(x for x, _ in part) for part in (imports, builds))
    return scaled, raw, runner


def run(workload: str, seed: int, seconds: float, traced: bool) -> int:
    process_start = perf_counter()
    if not (SRC / "biimplicit" / "__init__.py").is_file():
        print(f"error: no biimplicit sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    speed = Speed()
    setup_s, setup_raw_s, runner = measure_setup(workload, seed, speed)
    ops = runner.ops
    deadline = process_start + RUN_LIMIT_S

    # untraced passes fill the run (half of it when a traced pass follows)
    measure_start = perf_counter()
    budget_end = measure_start + (seconds / 2 if traced else seconds)
    passes = []
    tracer = Tracer() if traced else None
    speed.start()
    try:
        while True:
            passes.append(runner.run_pass(deadline))
            typical = statistics.median(p.wall for p in passes)
            if perf_counter() + typical > budget_end or perf_counter() > deadline:
                break
        if tracer:
            tracer.install()
            try:
                passes.append(runner.run_pass(deadline, tracer))
            finally:
                tracer.remove()
    finally:
        speed.stop()
    untraced = passes[:-1] if tracer else passes

    checked = verdicts(ops, passes)
    op_outcomes = [o for p in passes for o in p.ops]
    query_outcomes = [o for p in passes for o in p.queries]
    attempted = len(op_outcomes) + len(query_outcomes)
    wrong = [o for o in op_outcomes if o.status == "ok" and not checked[(o.op, o.product)][0]]
    failed = [o for o in op_outcomes + query_outcomes if o.status != "ok"] + wrong
    produced = [o for o in op_outcomes if o.status == "ok"]
    exact = [o for o in produced if checked[(o.op, o.product)][1]]
    correct = not wrong and not any(o.status.startswith("wrong") for o in query_outcomes)

    env = environment(workload, seed)
    walls = " ".join(f"{p.wall:.3f}" for p in passes)
    print(f"# workload={workload} seed={seed} trace={int(traced)} pass_walls_s={walls}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items() if k not in ("workload", "seed")))
    # each operation's median over the passes, so that a slow spell of the
    # host during one pass does not count
    op_outcomes_untraced = [o for p in untraced for o in p.ops]
    query_outcomes_untraced = [o for p in untraced for o in p.queries]

    def op_query_ms(scale):
        return (
            _medians_ms(op_outcomes_untraced, lambda o: o.op, scale),
            _medians_ms(query_outcomes_untraced, lambda o: (o.op, o.product), scale),
        )

    op_ms, query_ms = op_query_ms(speed.scale)
    raw_op_ms, raw_query_ms = op_query_ms(None)
    e2e = {
        "setup_s": setup_s,
        "wall_s": (sum(op_ms) + sum(query_ms)) / 1000,
        "op_ms.p50": statistics.median(op_ms),
        "query_ms.p50": statistics.median(query_ms) if query_ms else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exact_ratio": len(exact) / len(produced) if produced else 0.0,
    }
    units = dict(END_TO_END)
    for name, value in e2e.items():
        note = ""
        if name == "op_ms.p50":
            note = f"  (n={len(op_ms)})"
        elif name == "query_ms.p50":
            note = f"  (n={len(query_ms)})"
        elif name == "exact_ratio":
            note = f"  ({len(exact)}/{len(produced)})"
        print(f"{name:<14} {value:12.6g} {units[name]}{note}")
    if len(op_ms) >= 100:
        p90 = statistics.quantiles(op_ms, n=10)[8]
        print(f"{'op_ms.p90':<14} {p90:12.6g} ms  (n={len(op_ms)})")
    print(f"{'fail_ratio':<14} {len(failed) / attempted:12.6g} ratio  ({len(failed)}/{attempted})")
    print(
        f"# unscaled: setup_s={setup_raw_s:.6g} "
        f"wall_s={(sum(raw_op_ms) + sum(raw_query_ms)) / 1000:.6g} "
        f"op_ms.p50={statistics.median(raw_op_ms):.6g} "
        f"query_ms.p50={statistics.median(raw_query_ms) if raw_query_ms else 0:.6g}; "
        f"speed loop: median {statistics.median(speed.loop_s) * 1e6:.4g} us over "
        f"{len(speed.loop_s)} samples, reference {REF_S * 1e6:.4g} us"
    )
    for (k, _), (ok, is_exact, degree) in sorted(checked.items(), key=lambda kv: kv[0][0]):
        if not ok or not is_exact:
            what = "WRONG: does not vanish on the image" if not ok else "miss"
            print(f"{what}: {ops[k].name}: degree {degree}, image degree {ops[k].instance.image_degree}")
    for o in failed:
        if o.status != "ok":
            print(f"failed: {ops[o.op].name}: {o.status}")

    if traced:
        # scaled time of the traced pass over the median untraced pass
        work = [
            sum(o.seconds * speed.scale(o.start, o.start + o.seconds) for o in p.ops + p.queries)
            for p in passes
        ]
        overhead = work[-1] / statistics.median(work[:-1]) - 1.0
        metrics = tracer.per_layer(overhead)
        for name, unit, _ in PER_LAYER:
            print(f"{name:<38} {metrics[name]:12.6g} {unit}")
        OUT.mkdir(exist_ok=True)
        header = dict(env, counters=tracer.counters(), per_layer=metrics)
        tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl", header)
        out_units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = e2e
        out_units = units
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": out_units[n]} for n, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in turn, each in its own process."""
    status = 0
    for workload in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            timeout=300,
        )
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
