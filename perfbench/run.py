"""loracanvas benchmark: one workload, untraced or traced.

    python3 perfbench/run.py --workload reference --seed 42 --seconds 60 --trace 0

Run it from the repository root. It generates the workload's inputs from
``--seed`` (see ``workloads.py``), imports ``loracanvas`` from ``src/`` and
runs closed-loop in this one process: one run at a time, BLAS pinned to one
thread.

Both modes first make one untimed 2-step run of the workload's
configuration, so lazy set-up and first-use costs are paid before timing.
``--trace 0`` then repeats whole runs (``pipeline.sample``, or
``cli.run_gradcheck`` for ``gradcheck``) until the next one would overrun
``--seconds``, at least two; ``run_s`` and ``cpu_s`` are their medians.
After each run it times a batch of ``pipeline.prepare`` calls; the median
of all of them is ``setup_s``, so no single burst of machine noise sets
it. ``--trace 1`` makes one untraced run and then one traced run
(``tracer.py``) and reports the per-layer split. Every run goes through
the output gate: artifact digests identical across all runs of the
invocation, traced or not, every trace ``total`` finite, and
``grad_rel_err`` below 1e-5. Where a kink of the loss lies within the
finite-difference step, the central differences cannot match, and the
taped gradient must instead match the nearest one-sided difference below
1e-5 (``one_sided_error``). A run that raises or fails the gate counts as
failed; it is never dropped.

Human-readable lines go first, then a ``record:`` line (machine, inputs,
per-run values), and last one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics that ``BENCHMARK.json`` declares for the mode.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

from tracer import END, INFO, NAME, PARENT, START, Tracer, public_functions

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SETUP_BATCH = 21
MIN_RUNS = 2
WARMUP_STEPS = 2
ARTIFACTS = ("trace.csv", "latent.lcb", "preview.pgm")
GRAD_REL_ERR_LIMIT = 1e-5
# autodiff functions that drive the tape rather than add a node to it
TAPE_DRIVERS = ("grad", "finite_difference_gradient", "max_relative_error")
# printed but not declared in BENCHMARK.json: fail_rate is 0 on a good run, and
# with fewer than 11 runs no percentile has ten runs beyond it, so the max stands in
EXTRA_UNITS = {"fail_rate": "ratio", "run_max_s": "s"}
ATTENTION_SPANS = ("attention.masked_self_attention", "attention.region_cross_attention")


class GateError(Exception):
    """A run finished but its outputs fail the correctness gate."""


def import_package():
    """Import loracanvas from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "loracanvas" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no loracanvas package under {src}")
    sys.path.insert(0, str(src))
    import loracanvas
    if Path(loracanvas.__file__).resolve().parent != (src / "loracanvas").resolve():
        raise SystemExit(f"perfbench: imported loracanvas from {loracanvas.__file__}")
    return loracanvas


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def machine_record(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def input_hashes(directory: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(directory.iterdir()) if p.is_file()}


# ------------------------------------------------------------------ one run


@dataclasses.dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    digest: dict[str, str]
    loss_ratio: float | None = None
    grad_rel_err: float | None = None
    trace_rows: int = 0


def run_once(lc, workload, config, out_dir: Path) -> Outcome:
    """One whole run, timed, then checked against the per-run gate."""
    if workload.kind == "gradcheck":
        c0, t0 = time.process_time(), time.perf_counter()
        err = lc.cli.run_gradcheck(config)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if not math.isfinite(err):
            raise GateError(f"grad_rel_err {err!r} is not finite")
        return Outcome(wall, cpu, {"grad_rel_err": float(err).hex()},
                       grad_rel_err=float(err))

    run_config = dataclasses.replace(config, output_dir=out_dir)
    c0, t0 = time.process_time(), time.perf_counter()
    result = lc.pipeline.sample(run_config)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    digest = {name: sha256(out_dir / name) for name in ARTIFACTS}
    lines = (out_dir / "trace.csv").read_text().splitlines()
    column = lines[0].split(",").index("total")
    totals = [float(line.split(",")[column]) for line in lines[1:]]
    if len(totals) != len(result.trace):
        raise GateError(f"trace.csv has {len(totals)} rows, run returned {len(result.trace)}")
    if not all(math.isfinite(v) for v in totals):
        raise GateError("trace.csv holds a non-finite total")
    ratio = totals[-1] / totals[0] if totals else None
    shutil.rmtree(out_dir)
    return Outcome(wall, cpu, digest, loss_ratio=ratio, trace_rows=len(totals))


def one_sided_error(loss, z0, analytic, eps: float = 1e-6) -> float:
    """Max relative error of a gradient against the nearest one-sided difference.

    Central differences straddle a kink of the loss (a max or top-k that
    changes its winner) lying within ``eps`` of ``z0``; there the taped
    gradient is one of the two one-sided derivatives. Each entry is
    compared with the central and both second-order one-sided differences,
    and the closest of the three counts; the error is scaled as in
    ``autodiff.max_relative_error``.
    """
    import numpy as np

    z0 = np.asarray(z0, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64).reshape(-1)
    f0 = loss(z0)
    nearest = np.empty_like(analytic)
    for i in range(z0.size):
        f = {}
        for k in (-2, -1, 1, 2):
            probe = z0.copy().reshape(-1)
            probe[i] += k * eps
            f[k] = loss(probe.reshape(z0.shape))
        estimates = np.array([(f[1] - f[-1]) / (2 * eps),
                              (-3 * f0 + 4 * f[1] - f[2]) / (2 * eps),
                              (3 * f0 - 4 * f[-1] + f[-2]) / (2 * eps)])
        nearest[i] = estimates[np.argmin(np.abs(estimates - analytic[i]))]
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(nearest).max(initial=0.0))
    return float(np.abs(analytic - nearest).max() / scale) if scale else 0.0


def gradcheck_one_sided(lc, config) -> float:
    """``one_sided_error`` of the loss and latent that ``cli.run_gradcheck`` checks."""
    ctx, schedule = lc.pipeline.prepare(config)
    z0 = lc.reinit.initial_latent(config.seed, ctx.dims)

    def loss_of(z):
        _, record = lc.denoiser.denoiser_forward(z, schedule.steps, ctx)
        total, _ = lc.guidance.composite_loss(record, ctx.loss_geometry, config.guidance)
        return total

    traced = lc.autodiff.Tensor(z0, requires_grad=True)
    analytic = lc.autodiff.grad(loss_of(traced), traced)
    return one_sided_error(lambda z: float(loss_of(lc.autodiff.Tensor(z))), z0, analytic.data)


class Runner:
    """Runs repeats, keeps every outcome and applies the cross-run gate."""

    def __init__(self, lc, workload, config, work: Path):
        self.lc, self.workload, self.config, self.work = lc, workload, config, work
        self.outcomes: list[Outcome] = []
        self.attempted = 0
        self.failed = 0
        self.one_sided_err: float | None = None

    def run(self) -> Outcome | None:
        self.attempted += 1
        out_dir = self.work / f"out{self.attempted}"
        try:
            outcome = run_once(self.lc, self.workload, self.config, out_dir)
            if self.outcomes and outcome.digest != self.outcomes[0].digest:
                raise GateError(f"outputs differ from the first run: {outcome.digest}")
            if outcome.grad_rel_err is not None and outcome.grad_rel_err >= GRAD_REL_ERR_LIMIT:
                if self.one_sided_err is None:
                    self.one_sided_err = gradcheck_one_sided(self.lc, self.config)
                if not self.one_sided_err < GRAD_REL_ERR_LIMIT:
                    raise GateError(f"grad_rel_err {outcome.grad_rel_err!r} and one-sided "
                                    f"{self.one_sided_err!r} not below {GRAD_REL_ERR_LIMIT}")
        except Exception:  # every failure is counted and reported, never dropped
            traceback.print_exc()
            self.failed += 1
            return None
        self.outcomes.append(outcome)
        return outcome


# ------------------------------------------------------------------ metrics


def end_to_end(runner: Runner, setup_times: list[float]) -> dict[str, float]:
    walls = [o.wall_s for o in runner.outcomes]
    return {
        "run_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "cpu_s": statistics.median(o.cpu_s for o in runner.outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def quality(outcome: Outcome, runner: Runner) -> dict[str, float]:
    return {
        # no trace rows: no guidance step changed the loss
        "loss_ratio": 1.0 if outcome.loss_ratio is None else outcome.loss_ratio,
        # 0 when the workload runs no gradient check
        "grad_rel_err": outcome.grad_rel_err or 0.0,
        "fail_rate": runner.failed / runner.attempted,
    }


# trace hooks (tracer.Before / tracer.After); what they return is kept on the span


def tape_op_counts(args, kwargs):
    """Traced nodes reachable from grad's root, counted by op."""
    root = args[0] if args else kwargs["root"]
    counts: Counter = Counter()
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        counts[node.op] += 1
        stack.extend(p for p in node.parents if p.requires_grad)
    return args, kwargs, counts


def counting_fd(args, kwargs):
    """Count the evaluations finite_difference_gradient makes of its f."""
    evals = [0]
    f = args[0] if args else kwargs.pop("f")

    def counted(x):
        evals[0] += 1
        return f(x)

    return (counted,) + tuple(args[1:]), kwargs, evals


def forward_is_traced(args, kwargs):
    z = args[0] if args else kwargs["z"]
    return args, kwargs, z.requires_grad


def update_rows(result, args, info):
    """(rows, max_iters, accepted rows) of one guided_update call."""
    _, rows = result
    return len(rows), args[3].max_iters, sum(r.accepted for r in rows)


TRACE_HOOKS = {
    "autodiff.grad": (tape_op_counts, None),
    "autodiff.finite_difference_gradient": (counting_fd, lambda result, args, info: info[0]),
    "denoiser.denoiser_forward": (forward_is_traced, None),
    "guidance.guided_update": (None, update_rows),
    "tensorio.write_container": (None, lambda result, args, info: os.path.getsize(args[0])),
}


def layer_metrics(tr: Tracer, kernels: list[str], traced: Outcome,
                  untraced: Outcome) -> dict[str, float]:
    spans = tr.spans
    totals = tr.totals()

    def calls(name):
        return totals.get(name, (0, 0, 0))[0]

    def ms(name):
        return totals.get(name, (0, 0, 0))[1] / 1e6

    def self_ms(name):
        return totals.get(name, (0, 0, 0))[2] / 1e6

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def dur_ms(group):
        return sum(s[END] - s[START] for s in group) / 1e6

    forwards = named("denoiser.denoiser_forward")
    traced_fw = [s for s in forwards if s[INFO]]
    untraced_fw = [s for s in forwards if not s[INFO]]
    attention_in_forward = [s for s in spans if s[NAME] in ATTENTION_SPANS and s[PARENT] >= 0
                            and spans[s[PARENT]][NAME] == "denoiser.denoiser_forward"]
    grads = named("autodiff.grad")
    nodes: Counter = Counter()
    for s in grads:
        nodes.update(s[INFO])

    def per_grad(n):
        return n / len(grads) if grads else 0

    updates = named("guidance.guided_update")
    iters = sum(s[INFO][0] for s in updates)
    capped = sum(1 for s in updates if s[INFO][0] == s[INFO][1] and not (
        s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "reinit.reinitialize"))
    top = {i for i, s in enumerate(spans) if s[PARENT] < 0}
    covered = sum(s[END] - s[START] for s in spans if s[PARENT] in top) / 1e9

    m = {
        "pipeline.prepare_ms": ms("pipeline.prepare"),
        "pipeline.ddim_ms": ms("pipeline.ddim_step"),
        "pipeline.write_ms": (ms("pipeline.write_trace") + ms("pipeline.write_pgm")
                              + ms("tensorio.write_container")),
        "denoiser.forward.calls": len(forwards),
        "denoiser.forward.traced_calls": len(traced_fw),
        "denoiser.forward.untraced_calls": len(untraced_fw),
        "denoiser.forward.traced_ms": dur_ms(traced_fw),
        "denoiser.forward.untraced_ms": dur_ms(untraced_fw),
        "denoiser.self_ms": dur_ms(forwards) - dur_ms(attention_in_forward),
        "attention.self.calls": calls("attention.masked_self_attention"),
        "attention.self.ms": ms("attention.masked_self_attention"),
        "attention.cross.calls": calls("attention.region_cross_attention"),
        "attention.cross.ms": ms("attention.region_cross_attention"),
        "attention.compose_hidden.ms": ms("attention.compose_hidden"),
        "assets.apply_projection.calls": calls("assets.apply_projection"),
        "assets.apply_projection.ms": ms("assets.apply_projection"),
        "assets.weights_ms": ms("assets.generate_base_weights"),
        "assets.load_bundle_ms": ms("assets.load_bundle"),
        "autodiff.grad.calls": len(grads),
        "autodiff.grad.ms": dur_ms(grads),
        "autodiff.tape_nodes": per_grad(sum(nodes.values())),
        "autodiff.fd.evals": sum(s[INFO] for s in named("autodiff.finite_difference_gradient")),
        "autodiff.fd.ms": ms("autodiff.finite_difference_gradient"),
        "guidance.iters": iters,
        "guidance.iter_ms": ms("guidance.guided_update") / iters if iters else 0.0,
        "guidance.accept_ratio": (sum(s[INFO][2] for s in updates) / iters) if iters else 0.0,
        "guidance.stop_cap": capped,
        "guidance.loss_ms": ms("guidance.composite_loss"),
        "guidance.ce_ms": ms("guidance.concept_enhancement_terms"),
        "guidance.fill_ms": ms("guidance.fill_terms"),
        "guidance.region_ms": ms("guidance.region_terms"),
        "reinit.ms": ms("reinit.reinitialize"),
        "reinit.best_crop.ms": ms("reinit.best_crop"),
        "tensorio.read_ms": ms("tensorio.read_container"),
        "tensorio.write_ms": ms("tensorio.write_container"),
        "tensorio.bytes_written": sum(s[INFO] for s in named("tensorio.write_container")),
        "trace.overhead_ratio": traced.wall_s / untraced.wall_s,
        "trace.uncovered_share": 1.0 - covered / traced.wall_s,
    }
    for op in kernels:
        m[f"autodiff.op.{op}.nodes"] = per_grad(nodes[op])
        m[f"autodiff.op.{op}.ms"] = self_ms(f"autodiff.{op}")
    return m


# ------------------------------------------------------------------ main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    # BLAS reads these once, when numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    lc = import_package()
    import loracanvas.cli
    import loracanvas.pipeline
    import numpy as np
    import workloads

    work_root = ROOT / "perfbench" / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        inputs = work / "inputs"
        workload = workloads.generate(args.workload, args.seed, inputs)
        config = lc.pipeline.RunConfig.from_json(workload.config)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "machine": machine_record(np),
                  "config_sha256": sha256(workload.config),
                  "inputs_sha256": input_hashes(inputs)}
        runner = Runner(lc, workload, config, work)
        try:
            lc.pipeline.sample(dataclasses.replace(
                config, steps=WARMUP_STEPS, output_dir=work / "warmup"))
        except Exception:  # the measured runs then fail and are counted
            traceback.print_exc()

        if args.trace:
            untraced = runner.run()
            kernels = sorted(set(public_functions(lc.autodiff)) - set(TAPE_DRIVERS))
            with Tracer(TRACE_HOOKS) as tr:
                traced = runner.run()
            metrics = {}
            if untraced and traced:
                metrics = layer_metrics(tr, kernels, traced, untraced)
                metrics.update(quality(traced, runner))
            record["spans"] = len(tr.spans)
        else:
            setup_times = []
            start = time.perf_counter()
            while True:
                runner.run()
                for _ in range(SETUP_BATCH):
                    t0 = time.perf_counter()
                    lc.pipeline.prepare(config)
                    setup_times.append(time.perf_counter() - t0)
                elapsed = time.perf_counter() - start
                longest = max((o.wall_s for o in runner.outcomes), default=0.0)
                if runner.attempted >= MIN_RUNS and elapsed + longest > args.seconds:
                    break
            metrics = {}
            if runner.outcomes:
                metrics = end_to_end(runner, setup_times)
                metrics.update(quality(runner.outcomes[0], runner))
                walls = [o.wall_s for o in runner.outcomes]
                metrics["run_max_s"] = max(walls)
                record["run_s"] = walls
                record["cpu_s"] = [o.cpu_s for o in runner.outcomes]
                record["setup_s"] = setup_times
        record["trace_rows"] = [o.trace_rows for o in runner.outcomes]
        record["one_sided_rel_err"] = runner.one_sided_err
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    units.update(EXTRA_UNITS)
    for name in sorted(metrics):
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units.get(name, '')}".rstrip())
    print(f"{args.workload} runs = {len(runner.outcomes)} of {runner.attempted}, "
          f"failed {runner.failed}")
    record["metrics"] = metrics
    print("record: " + json.dumps(record, sort_keys=True))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = runner.failed == 0 and not missing
    if missing and runner.failed == 0:
        print(f"perfbench: declared metrics not computed: {missing}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
