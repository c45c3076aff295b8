"""Benchmark of the ``sgeit`` command line on the tank fixture.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``sgeit`` from
``src``.  One process, one operation at a time, BLAS pinned to one thread
(closed loop, one client).  Every run follows the tool's use: make the
input files, ``sgeit precompute`` the tank surrogate, then ``sgeit
reconstruct`` the inclusion data against it, each command called in
process through ``sgeit.cli.main``.  The workload decides which command
the ``--seconds`` loop repeats; the other runs a fixed small number of
times so that every end-to-end metric is measured on every workload.

Times are in reference seconds (see ``calibrate.py``).  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics of
``layers.json``, the self time of every layer and the tracing overhead.
The last line of standard output is the JSON result; a fuller record,
with the environment, every operation and (traced) every span, is written
to ``.bench_out/``.  The exit code is 0 only if every output check passed.
"""

from env import pin_blas_threads

pin_blas_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import ops  # noqa: E402
from env import environment  # noqa: E402
from calibrate import Speed, scale  # noqa: E402
from ess import ess_per_coordinate  # noqa: E402
from spans import Tracer, layer_self_times  # noqa: E402
from sgeit import chaos, cli, det_cem, fem, inversion, sgfem, surrogate  # noqa: E402

BENCH = Path(__file__).resolve().parent
OUT = ops.ROOT / ".bench_out"

# main: the command the --seconds loop repeats; the data set and the
# likelihood noise rule of the reconstruct command
WORKLOADS = {
    "precompute-tank": {"main": "precompute", "fine_data": False, "noise_pct": 5.0},
    "reconstruct-broad": {"main": "reconstruct", "fine_data": False, "noise_pct": 5.0},
    "reconstruct-sharp": {"main": "reconstruct", "fine_data": True, "noise_pct": None},
}
MIN_MAIN_OPS = 3
OTHER_OPS = {"precompute": 6, "reconstruct": 8}
SETUP_REPS = 25
SPAN_TIMES = {
    "geometry.load_mesh_s": "geometry.load_mesh",
    "geometry.assign_pixels_s": "geometry.assign_pixels",
    "fem.assemble_spatial_s": "fem.assemble_spatial",
    "chaos.iso_td_s": "chaos.iso_td",
    "chaos.moment_matrices_s": "chaos.moment_matrices",
    "chaos.basis_build_s": "chaos.basis_build",
    "sgfem.assemble_system_s": "sgfem.assemble_system",
    "sgfem.solve_s": "sgfem.solve",
    "det_cem.simulate_s": "det_cem.simulate",
    "surrogate.save_s": "surrogate.save",
    "surrogate.load_s": "surrogate.load",
    "inversion.build_posterior_s": "inversion.build_posterior",
    "inversion.map_estimate_s": "inversion.map_estimate",
    "inversion.chain_s": "inversion.chain",
    "inversion.cm_sd_s": "inversion.cm_sd",
}
SPAN_ATTRS = {
    "chaos.n_terms": ("chaos.iso_td", "n_terms"),
    "sgfem.order": ("sgfem.assemble_system", "order"),
    "sgfem.nnz": ("sgfem.assemble_system", "nnz"),
    "sgfem.max_rel_residual": ("sgfem.solve", "max_rel_residual"),
    "surrogate.file_bytes": ("surrogate.save", "file_bytes"),
    "inversion.map_iterations": ("inversion.map_estimate", "iterations"),
    "inversion.acceptance": ("inversion.chain", "acceptance"),
    "inversion.chain_steps": ("inversion.chain", "steps"),
}
HOT_CALLS = ("surrogate.eval_stacked", "surrogate.jacobian", "chaos.basis_eval")


def install_spans(tracer: Tracer) -> None:
    """Wrap the attributes the CLI and library call through."""
    w = tracer.wrap
    S, P, B = surrogate.SgfemSurrogate, inversion.Posterior, chaos.ChaosBasis
    w(cli, "main", "cli.main")
    w(cli, "load_mesh", "geometry.load_mesh")
    w(cli, "assign_pixels", "geometry.assign_pixels")
    w(cli, "iso_td", "chaos.iso_td", note=lambda a, r: {"n_terms": len(r)})
    w(cli, "moment_matrices", "chaos.moment_matrices")
    w(B, "__post_init__", "chaos.basis_build")
    w(fem, "assemble_spatial", "fem.assemble_spatial")
    w(sgfem, "assemble_system", "sgfem.assemble_system",
      note=lambda a, r: {"order": r.order, "nnz": r.K.nnz})
    w(sgfem, "solve", "sgfem.solve",
      note=lambda a, r: {"max_rel_residual": float(r.residuals.max())})
    w(surrogate, "from_solution", "surrogate.from_solution")
    w(S, "save", "surrogate.save", note=lambda a, r: {"file_bytes": os.path.getsize(a[1])})
    w(surrogate, "load", "surrogate.load")
    w(det_cem, "simulate_measurements", "det_cem.simulate")
    w(det_cem, "save_measurements", "det_cem.save_measurements")
    w(det_cem, "load_measurements", "det_cem.load_measurements")
    w(inversion, "build_posterior", "inversion.build_posterior")
    w(inversion, "reconstruct", "inversion.reconstruct")
    w(inversion, "map_estimate", "inversion.map_estimate",
      note=lambda a, r: {"iterations": r.iterations})
    w(inversion, "mcmc_sample", "inversion.chain", note=lambda a, r: {
        "acceptance": r.acceptance,
        "steps": a[1].burn_in + a[1].n_samples * a[1].thinning,
    })
    w(inversion, "cm_sd_estimates", "inversion.cm_sd")
    w(inversion, "save_estimates", "inversion.save_estimates")
    # per-call hot paths: counted and timed under the enclosing span
    w(P, "log_density", "inversion.log_density", hot=True)
    w(P, "residual", "inversion.residual", hot=True)
    w(P, "residual_jacobian", "inversion.residual_jacobian", hot=True)
    w(S, "eval_stacked", "surrogate.eval_stacked", hot=True)
    w(S, "jacobian", "surrogate.jacobian", hot=True)
    w(B, "eval", "chaos.basis_eval", hot=True)
    w(B, "eval_with_jacobian", "chaos.basis_eval_with_jacobian", hot=True)


def _hot(spans: list[dict], name: str, under: str | None = None) -> tuple[int, float]:
    """Calls and total seconds of a hot path, optionally below one span name."""
    calls, ns = 0, 0
    for s in spans:
        if (under is None or s["name"] == under) and name in s["agg"]:
            calls += s["agg"][name][0]
            ns += s["agg"][name][1]
    return calls, ns * 1e-9


def layer_metrics(spans: list[dict], chain) -> dict[str, float]:
    """Per-layer metrics of one traced operation (only those that apply)."""
    m: dict[str, float] = {}
    names = {s["name"] for s in spans}
    for metric, name in SPAN_TIMES.items():
        if name in names:
            m[metric] = sum(s["end"] - s["start"] for s in spans if s["name"] == name)
    for metric, (name, key) in SPAN_ATTRS.items():
        for s in spans:
            if s["name"] == name and key in s["attrs"]:
                m[metric] = s["attrs"][key]
    for name in HOT_CALLS:
        calls, seconds = _hot(spans, name)
        if calls:
            m[f"{name}_calls"] = calls
            m[f"{name}_us"] = 1e6 * seconds / calls
    if "inversion.map_estimate" in names:
        m["inversion.map_residual_evals"] = _hot(
            spans, "inversion.residual", "inversion.map_estimate")[0]
    if "inversion.chain" in names:
        steps = m["inversion.chain_steps"]
        m["inversion.chain_us_per_step"] = 1e6 * m["inversion.chain_s"] / steps
        # the start point is evaluated once before the first proposal
        evals = _hot(spans, "surrogate.eval_stacked", "inversion.chain")[0]
        m["inversion.in_support_share"] = (evals - 1) / steps
        per_coord = ess_per_coordinate([chain.samples])
        m["inversion.ess_min"] = float(per_coord.min())
        m["inversion.ess_median"] = float(np.median(per_coord))
    for layer, seconds in layer_self_times(spans).items():
        m[f"{layer}.self_s"] = seconds
    return m


def _scaled(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """Times of one operation in reference seconds (see calibrate.py)."""
    return {k: v * factor if k.endswith(("_s", "_us", "_us_per_step")) else v
            for k, v in metrics.items()}


class Session:
    """One benchmark run: inputs, operations, checks and metrics."""

    def __init__(self, args, work: Path):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.work = work
        rng = np.random.default_rng(args.seed)
        self.data_seed, self.probe_seed = (int(v) for v in rng.integers(2**31, size=2))
        self.chain_seeds = [int(v) for v in rng.integers(2**31, size=4096)]
        self.tracer = Tracer() if args.trace else None
        self.keeper = ops.Keeper()
        self.speed = Speed()
        self._last_speed = (-float("inf"), None)
        self.ops: list[dict] = []
        self.chains: list = []
        self.traced_metrics: dict[str, list[dict]] = {}

    def _call(self, op_id: str, traced: bool, fn):
        if not traced:
            return fn()
        install_spans(self.tracer)
        try:
            with self.tracer.operation(op_id):
                return fn()
        finally:
            self.tracer.restore()

    def _speed_sample(self, reuse: bool = False) -> float:
        """A calibration sample; with ``reuse``, the last one if under 1 s old."""
        if reuse and time.perf_counter() - self._last_speed[0] < 1.0:
            return self._last_speed[1]
        sample = self.speed.sample()
        self._last_speed = (time.perf_counter(), sample)
        return sample

    def _run(self, kind: str, argv: list[str], out: Path, traced: bool) -> None:
        self.keeper.reset()
        op_id = f"{kind}-{len(self.ops)}"
        before = self._speed_sample(reuse=True)
        code, wall = self._call(op_id, traced, lambda: ops.run_cli(argv))
        after = self._speed_sample()
        factor = scale(before, after)
        if kind == "precompute":
            digest, problems = ops.check_precompute(code, self.keeper, out)
        else:
            digest, problems = ops.check_reconstruct(
                code, self.keeper, out, inclusion=self.spec["fine_data"])
        record = {"id": op_id, "kind": kind, "traced": traced, "seconds": wall * factor,
                  "wall_s": wall, "speed_factor": factor, "speed": [before, after],
                  "exit": code,
                  "sha256": digest, "problems": problems, "argv": argv}
        if traced and not problems:
            metrics = layer_metrics(self.tracer.op_spans(op_id), self.keeper.chain)
            self.traced_metrics.setdefault(kind, []).append(_scaled(metrics, factor))
        elif kind == "reconstruct" and not problems:
            self.chains.append(self.keeper.chain.samples)
        self.ops.append(record)

    def setup(self) -> None:
        def make():
            return ops.make_inputs(self.work, self.spec["fine_data"], self.data_seed)

        before = self._speed_sample()
        walls, digests = [], set()
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.paths = make()
            walls.append(time.perf_counter() - t0)
            digests.add(ops.output_digest(self.paths["data"]))
        factor = scale(before, self._speed_sample())
        if self.tracer:
            self.paths = self._call("setup", True, make)
            digests.add(ops.output_digest(self.paths["data"]))
            metrics = layer_metrics(self.tracer.op_spans("setup"), None)
            self.traced_metrics["setup"] = [_scaled(metrics, factor)]
        problems = [] if len(digests) == 1 else ["data file differs between set-ups"]
        self.setup_times = [w * factor for w in walls]
        self.ops.append({"id": "setup", "kind": "setup",
                         "seconds": statistics.median(self.setup_times),
                         "wall_s": statistics.median(walls), "speed_factor": factor,
                         "problems": problems})

    def loop(self, kind: str) -> None:
        """Repeat one command: for --seconds if it is the workload's own."""
        main = self.spec["main"] == kind
        start = time.perf_counter()
        i = 0
        while True:
            if main:
                if i >= MIN_MAIN_OPS and time.perf_counter() - start >= self.args.seconds:
                    break
            elif i >= OTHER_OPS[kind]:
                break
            traced = self.tracer is not None and i % 2 == 1
            if kind == "precompute":
                out = self.work / f"surrogate-{i}.bin"
                self._run(kind, ops.precompute_argv(self.paths, out), out, traced)
            else:
                out = self.work / f"estimates-{i}.json"
                argv = ops.reconstruct_argv(self.surrogate, self.paths, self.chain_seeds[i],
                                            self.spec["noise_pct"], out)
                self._run(kind, argv, out, traced)
            i += 1
        if kind == "precompute":
            self.surrogate = self.work / "surrogate-0.bin"
            first = next(r for r in self.ops if r["kind"] == "precompute")
            for r in self.ops:
                if r["kind"] == "precompute" and r["sha256"] != first["sha256"]:
                    r["problems"].append("surrogate differs from the first precompute")

    def fresh_process(self, kind: str) -> dict:
        """One command in a new interpreter: peak RSS and a determinism check."""
        twin = next(r for r in self.ops if r["kind"] == kind)
        argv = list(twin["argv"])
        out_at = argv.index("--out") + 1
        out = Path(argv[out_at])
        argv[out_at] = str(out.with_name("fresh-" + out.name))
        record = {"id": f"fresh-{kind}", "kind": kind, "problems": []}
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "fresh_op.py"), kind,
                                   json.dumps(argv)], cwd=ops.ROOT, capture_output=True,
                                  text=True, timeout=120)
            record.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        except subprocess.TimeoutExpired:
            record["problems"].append("fresh process timed out after 120 s")
        except (IndexError, json.JSONDecodeError):
            record["problems"].append(f"fresh process failed: {proc.stderr[-500:]}")
        else:
            if record["exit"] != 0:
                record["problems"].append(f"{kind} exited {record['exit']}")
            elif record["sha256"] != twin["sha256"]:
                record["problems"].append("output differs from the in-process run")
        self.ops.append(record)
        return record

    def accuracy(self) -> float:
        err = ops.surrogate_rel_err(self.surrogate, self.paths, self.probe_seed)
        if not err < ops.REL_ERR_BOUND:
            first = next(r for r in self.ops if r["kind"] == "precompute")
            first["problems"].append(
                f"surrogate_rel_err {err:.4f} not below {ops.REL_ERR_BOUND}")
        return err

    def run(self) -> dict:
        self.setup()
        with self.keeper:
            self.loop("precompute")
            self.loop("reconstruct")
        if self.tracer is None:
            fresh = self.fresh_process(self.spec["main"])
            return self.end_to_end(fresh)
        fresh = self.fresh_process("precompute")
        return self.per_layer(fresh)

    def _seconds(self, kind: str, traced: bool) -> list[float]:
        return [r["seconds"] for r in self.ops
                if r["kind"] == kind and r.get("traced") is traced and "exit" in r
                and not r["problems"]]

    def end_to_end(self, fresh: dict) -> dict:
        rel_err = self.accuracy()
        recon = self._seconds("reconstruct", False)
        ess = float(np.median(ess_per_coordinate(self.chains))) if self.chains else 0.0
        return {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "precompute_s": (statistics.median(self._seconds("precompute", False) or [0.0]), "s"),
            "reconstruct_s": (statistics.median(recon or [0.0]), "s"),
            "ess_per_s": (ess / sum(recon) if recon else 0.0, "1/s"),
            "peak_rss_mb": (fresh.get("peak_rss_mb", 0.0), "MB"),
            "surrogate_rel_err": (rel_err, "1"),
        }

    def per_layer(self, fresh: dict) -> dict:
        catalogue = json.loads((BENCH / "layers.json").read_text())
        totals: dict[str, float] = {}
        for per_op in self.traced_metrics.values():
            for name in {k for m in per_op for k in m}:
                values = [m[name] for m in per_op if name in m]
                totals[name] = totals.get(name, 0.0) + statistics.median(values)
        totals["sgfem.solve_rss_growth_mb"] = fresh.get("solve_rss_growth_mb", 0.0)
        for kind in ("precompute", "reconstruct"):
            plain, traced = self._seconds(kind, False), self._seconds(kind, True)
            if plain and traced:
                overhead = statistics.median(traced) - statistics.median(plain)
                totals[f"trace.{kind}_overhead_s"] = overhead
        return {row["name"]: (totals.get(row["name"], 0.0), row["unit"]) for row in catalogue}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    session = Session(args, work)
    try:
        metrics = session.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checked = [r for r in session.ops if "problems" in r]
    failed = [r for r in checked if r["problems"]]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(ops.ROOT, args.seed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failure_rate": len(failed) / len(checked),
        "operations": session.ops,
        "spans": session.tracer.spans if session.tracer else [],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=float))

    for r in failed:
        print(f"FAILED {r['id']}: {'; '.join(r['problems'])}")
    print(f"environment: {json.dumps(record['environment'])}")
    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {unit}")
    for kind in ("setup", "precompute", "reconstruct"):
        walls = [r["wall_s"] for r in session.ops
                 if r["kind"] == kind and not r.get("traced") and "wall_s" in r]
        factors = [r["speed_factor"] for r in session.ops
                   if r["kind"] == kind and "speed_factor" in r]
        if walls:
            print(f"{args.workload} {kind} wall time median {statistics.median(walls):.6g} s "
                  f"(speed factor {min(factors):.3f}-{max(factors):.3f})")
    print(f"{args.workload} failure_rate = {record['failure_rate']:.6g} "
          f"({len(failed)}/{len(checked)} operations)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
