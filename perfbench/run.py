"""End-to-end benchmark of the slognorm command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 40 --trace 0

One client runs a workload's command list (see ``cases.WORKLOADS``) as
sequential ``python -m slognorm.cli`` subprocesses, in a closed loop: each
command starts when the previous one has exited, and a no-work
``--version`` invocation, timed for ``setup_s``, precedes each command.
The run ends within ``--seconds`` of its start: a command starts only if
it is expected to end by then, once every command has run MIN_PASSES
times.  So every command is rerun with the same seed, its stdout digest
can be compared, and its time is the median of its runs.  Every report is
checked against the oracles in ``oracle.py``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
whole passes over the list that run each command under ``tracer.py`` with
untraced passes, starting with a traced one, until a further pass would
not end within ``--seconds``; it reports per-layer self times and counts
from the recorded spans of the traced passes, and ``trace.overhead_s``
compares them with the untraced passes.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit, the error rate, the machine, and the sha256 digest of each command's
stdout.  A fuller record goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cases
import oracle

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
MIN_PASSES = 2
COMMAND_TIMEOUT_S = 120.0

END_TO_END = {
    "wall_s": "s",
    "estimate_s": "s",
    "simulate_path_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# metric -> (unit, traced function, call variant or None for all calls, field)
PER_LAYER = {
    "cli.self_s": ("s", "cli", None, "self_s"),
    "matcore.self_s": ("s", "matcore", None, "self_s"),
    "lognorm.self_s": ("s", "lognorm", None, "self_s"),
    "slognorm.self_s": ("s", "slognorm", None, "self_s"),
    "sdesim.self_s": ("s", "sdesim", None, "self_s"),
    "matcore.lambda_max_hermitian_batch.lapack.n6.self_s":
        ("s", "matcore.lambda_max_hermitian_batch", "lapack.n6", "self_s"),
    "matcore.lambda_max_hermitian_batch.lapack.n100.self_s":
        ("s", "matcore.lambda_max_hermitian_batch", "lapack.n100", "self_s"),
    "matcore.lambda_max_hermitian_batch.lapack.calls":
        ("count", "matcore.lambda_max_hermitian_batch", "lapack", "calls"),
    "matcore.lambda_max_hermitian_batch.lapack.items":
        ("count", "matcore.lambda_max_hermitian_batch", "lapack", "items"),
    "matcore.lambda_max_hermitian_batch.closed_form.self_s":
        ("s", "matcore.lambda_max_hermitian_batch", "closed_form", "self_s"),
    "matcore.lambda_max_hermitian_batch.closed_form.calls":
        ("count", "matcore.lambda_max_hermitian_batch", "closed_form", "calls"),
    "matcore.matrix_norm_batch.real.self_s": ("s", "matcore.matrix_norm_batch", "real", "self_s"),
    "matcore.matrix_norm_batch.complex.self_s":
        ("s", "matcore.matrix_norm_batch", "complex", "self_s"),
    "matcore.matrix_norm_batch.items": ("count", "matcore.matrix_norm_batch", None, "items"),
    "lognorm.mu_batch.p1.self_s": ("s", "lognorm.mu_batch", "p1", "self_s"),
    "lognorm.mu_batch.p2.self_s": ("s", "lognorm.mu_batch", "p2", "self_s"),
    "lognorm.mu_batch.pinf.self_s": ("s", "lognorm.mu_batch", "pinf", "self_s"),
    "lognorm.mu_batch.items": ("count", "lognorm.mu_batch", None, "items"),
    "slognorm.nu_direct.self_s": ("s", "slognorm.nu_direct", None, "self_s"),
    "slognorm.nu_direct.samples": ("count", "slognorm.nu_direct", None, "samples"),
    "slognorm.nu_definitional.self_s": ("s", "slognorm.nu_definitional", None, "self_s"),
    "slognorm.nu_definitional.samples": ("count", "slognorm.nu_definitional", None, "samples"),
    "slognorm.nu_definitional.bias_warnings":
        ("count", "slognorm.nu_definitional", None, "bias_warning"),
    "slognorm.sample_wiener_increments.m1.self_s":
        ("s", "slognorm.sample_wiener_increments", "m1", "self_s"),
    "slognorm.sample_wiener_increments.m1.items":
        ("count", "slognorm.sample_wiener_increments", "m1", "items"),
    "slognorm.sample_wiener_increments.m2.self_s":
        ("s", "slognorm.sample_wiener_increments", "m2", "self_s"),
    "slognorm.sample_wiener_increments.m2.items":
        ("count", "slognorm.sample_wiener_increments", "m2", "items"),
    "sdesim.simulate_moments.self_s": ("s", "sdesim.simulate_moments", None, "self_s"),
    "sdesim.simulate_moments.path_steps":
        ("count", "sdesim.simulate_moments", None, "path_steps"),
    "sdesim.diverged_paths": ("count", "sdesim.simulate_moments", None, "diverged"),
    "trace.overhead_s": ("s", None, None, "overhead"),
}
MODULES = ("matcore", "lognorm", "slognorm", "sdesim")


@dataclass
class Result:
    """One command execution."""

    cmd: cases.Command
    wall_s: float
    rss_kb: int
    code: int
    digest: str
    errors: list[str] = field(default_factory=list)
    bias_warnings: int = 0
    spans: Path | None = None


class Runner:
    """Runs commands for one client and keeps every result."""

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = OUT / "inputs"
        self.work = OUT / "work"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("SLOGNORM_SEED", None)
        self.digests: dict[int, str] = {}
        self.passes: list[list[Result]] = []
        self.traced: list[bool] = []
        self.setup: list[float] = []

    def argv(self, cmd: cases.Command) -> list[str]:
        args = list(cmd.args)
        if cmd.seeded:
            args += ["--seed", str(self.seed)]
        return args

    def spawn(self, argv: list[str], stdout: Path) -> tuple[float, int, int]:
        """Run argv to completion; (wall seconds, peak RSS in KiB, exit code)."""
        with open(stdout, "wb") as out, open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.inputs, env=self.env,
                                    stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss, proc.returncode

    def time_setup(self, reps: int) -> None:
        """Time no-work invocations: interpreter, numpy, click and package imports."""
        for _ in range(reps):
            wall, _, code = self.spawn([sys.executable, "-m", "slognorm.cli", "--version"],
                                       self.work / "version.stdout")
            if code != 0:
                raise SystemExit(f"python -m slognorm.cli --version exited with {code}")
            self.setup.append(wall)

    def run_command(self, index: int, cmd: cases.Command, trace: bool, tag: str) -> Result:
        stdout = self.work / f"{tag}.stdout"
        spans = self.work / f"{tag}.spans.jsonl" if trace else None
        if trace:
            argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans)]
        else:
            argv = [sys.executable, "-m", "slognorm.cli"]
        wall, rss, code = self.spawn(argv + self.argv(cmd), stdout)
        data = stdout.read_bytes()
        res = Result(cmd, wall, rss, code, hashlib.sha256(data).hexdigest(), spans=spans)
        if code != 0:
            res.errors.append(f"exit code {code}")
            return res
        if trace and not spans.is_file():
            res.errors.append("the tracer wrote no spans")
        try:
            report = json.loads(data)
            errors, res.bias_warnings = oracle.check(cmd.check, report, self.inputs)
            res.errors += errors
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            res.errors.append(f"stdout is not the expected report: {exc!r}")
        expected = self.digests.setdefault(index, res.digest)
        if res.digest != expected:
            res.errors.append(f"stdout digest {res.digest} differs from rerun {expected}")
        return res

    def measure(self, commands, trace: bool, deadline: float) -> None:
        """Run passes over the commands until the next step would end after deadline.

        Only once ``enough`` holds may the run stop.  Without tracing the
        step is one command and the last pass may stop part way; with
        tracing it is a whole pass, traced and untraced in turn.  The
        expected length of a step is the longest that its commands, each
        with its setup run, have taken so far.
        """
        longest = [0.0] * len(commands)
        while True:
            last = self.passes[-1] if self.passes else commands
            k = len(last) % len(commands)
            step = sum(longest) if trace else longest[k]
            if self.enough(trace) and time.perf_counter() + step > deadline:
                return
            if k == 0:
                self.passes.append([])
                self.traced.append(trace and len(self.passes) % 2 == 1)
            t0 = time.perf_counter()
            self.time_setup(1)
            self.passes[-1].append(self.run_command(
                k, commands[k], self.traced[-1], f"p{len(self.passes) - 1}c{k}"))
            longest[k] = max(longest[k], time.perf_counter() - t0)

    def enough(self, trace: bool) -> bool:
        """Whether every command has run as often as the report needs."""
        if self.passes and len(self.passes[-1]) != len(self.passes[0]):
            return not trace and len(self.passes) > MIN_PASSES
        if trace:
            return len(self.passes) >= 2
        return len(self.passes) >= MIN_PASSES

    def plain(self) -> list[list[Result]]:
        return [p for p, t in zip(self.passes, self.traced) if not t]

    def traced_passes(self) -> list[list[Result]]:
        return [p for p, t in zip(self.passes, self.traced) if t]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def command_medians(passes: list[list[Result]]) -> list[float]:
    """Median wall time of each command over the given passes; the last may be partial."""
    return [statistics.median(p[i].wall_s for p in passes if i < len(p))
            for i in range(len(passes[0]))]


def end_to_end(runner: Runner, commands) -> dict[str, float]:
    walls = command_medians(runner.plain())
    sims = [(c.path_steps, w) for c, w in zip(commands, walls) if c.kind == "simulate"]
    return {
        "wall_s": sum(walls),
        "estimate_s": sum(w for c, w in zip(commands, walls) if c.kind == "estimate"),
        "simulate_path_steps_per_s": sum(n for n, _ in sims) / sum(w for _, w in sims),
        "setup_s": statistics.median(runner.setup),
        "peak_rss_mb": max(r.rss_kb for p in runner.plain() for r in p) / 1024.0,
    }


COUNTS = ("items", "samples", "bias_warning", "path_steps", "diverged")


def span_table(paths: list[Path]) -> tuple[dict, set[str], set[str]]:
    """Aggregate span files into {(function, variant): {field: total}}.

    A call with variant "lapack.n6" counts under (function, None),
    (function, "lapack") and (function, "lapack.n6"), and its self time
    also under (module, None).  Also returns the functions that were
    wrapped, and those of them with a call whose attributes (variant and
    counts) could not be read.
    """
    table: dict[tuple[str, str | None], dict[str, float]] = {}
    wrapped: set[str] = {"cli"}
    unreadable: set[str] = set()
    for path in paths:
        if path is None or not path.is_file():
            continue
        with open(path, encoding="utf-8") as fh:
            wrapped.update(json.loads(fh.readline())["wrapped"])
            spans = [json.loads(line) for line in fh]
        child: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["t1"] - s["t0"]
        for s in spans:
            if s.get("attrs_missing"):
                unreadable.add(s["name"])
            row = {"self_s": s["t1"] - s["t0"] - child.get(s["id"], 0.0), "calls": 1}
            row.update((k, s[k]) for k in COUNTS if k in s)
            keys = [(s["name"], None), (s["name"].split(".")[0], None)]
            parts = s["variant"].split(".") if "variant" in s else []
            keys += [(s["name"], ".".join(parts[:k])) for k in range(1, len(parts) + 1)]
            for key in dict.fromkeys(keys):
                acc = table.setdefault(key, {})
                for k, v in row.items():
                    acc[k] = acc.get(k, 0) + v
    return table, wrapped, unreadable


def per_layer(runner: Runner) -> tuple[dict[str, float], list[str], dict]:
    traced = runner.traced_passes()
    tables = [span_table([r.spans for r in p]) for p in traced]
    wrapped = set.intersection(*(w for _, w, _ in tables)) | set(MODULES)
    unreadable = set.union(*(u for _, _, u in tables))
    traced_wall = sum(command_medians(traced))
    plain_wall = sum(command_medians(runner.plain()))
    metrics, missing = {}, []
    for name, (_, func, variant, fld) in PER_LAYER.items():
        from_attrs = variant is not None or fld not in ("self_s", "calls")
        if fld == "overhead":
            metrics[name] = traced_wall - plain_wall
        elif func in wrapped and not (from_attrs and func in unreadable):
            metrics[name] = statistics.median(
                t.get((func, variant), {}).get(fld, 0) for t, _, _ in tables)
        else:
            missing.append(name)

    def share(*names: str) -> float:
        return sum(metrics.get(n, 0.0) for n in names) / traced_wall

    shares = {
        "lapack lambda_max": share(
            "matcore.lambda_max_hermitian_batch.lapack.n6.self_s",
            "matcore.lambda_max_hermitian_batch.lapack.n100.self_s"),
        "sample_wiener_increments m2": share("slognorm.sample_wiener_increments.m2.self_s"),
        "matrix_norm_batch + nu_definitional": share(
            "matcore.matrix_norm_batch.real.self_s", "matcore.matrix_norm_batch.complex.self_s",
            "slognorm.nu_definitional.self_s"),
    }
    return metrics, missing, {"self_time_share_of_traced_wall": shares,
                              "traced_wall_s": traced_wall, "untraced_wall_s": plain_wall}


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k].get('name')} {deps[k].get('version')}" for k in ("blas", "lapack")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": blas,
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def check_benchmark_file() -> None:
    """The metric names and units here must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    mine = {**END_TO_END, **{k: v[0] for k, v in PER_LAYER.items()}}
    if declared != mine:
        raise SystemExit(f"BENCHMARK.json metrics differ from run.py: {set(declared) ^ set(mine)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must lie in [0, 2**63)")
    if not (ROOT / "src" / "slognorm" / "cli.py").is_file():
        print(f"no slognorm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    check_benchmark_file()

    deadline = time.perf_counter() + args.seconds
    runner = Runner(args.seed)
    runner.work.mkdir(parents=True, exist_ok=True)
    cases.write_inputs(runner.inputs)
    commands = cases.WORKLOADS[args.workload]
    runner.time_setup(1)  # fills the bytecode cache
    runner.setup.clear()
    runner.measure(commands, bool(args.trace), deadline)

    every = [r for p in runner.passes for r in p]
    failed = [r for r in every if r.errors]
    if args.trace:
        metrics, missing, extra = per_layer(runner)
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        metrics, missing, extra = end_to_end(runner, commands), [], {}
        units = END_TO_END
    walls = command_medians(runner.plain())
    info = machine()

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"passes {len(runner.passes)}",
             f"machine {json.dumps(info, sort_keys=True)}"]
    for i, cmd in enumerate(commands):
        lines.append(f"command {' '.join(runner.argv(cmd))}  median {walls[i]:.4f} s  "
                     f"sha256 {runner.digests.get(i, '-')}")
    for r in failed:
        lines.append(f"FAILED {' '.join(r.cmd.args)}: {'; '.join(r.errors)}")
    lines.append("definitional estimates with bias_warning per pass: "
                 f"{sum(r.bias_warnings for r in runner.passes[0])}")
    lines.append(f"error_rate {len(failed) / len(every):.4f} "
                 f"({len(failed)} of {len(every)} commands failed)")
    for name, value in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {units[name]}")
    for name in missing:
        lines.append(f"metric {name} MISSING: its function is no longer in the package "
                     "or its call attributes could not be read")
    for name, value in extra.get("self_time_share_of_traced_wall", {}).items():
        lines.append(f"self time share of traced wall time: {name} = {value:.3f}")
    print("\n".join(lines))

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": info,
        "setup_s": runner.setup, "failed": [r.errors for r in failed],
        "digests": {" ".join(runner.argv(c)): runner.digests.get(i)
                    for i, c in enumerate(commands)},
        "passes": [
            {"traced": t, "walls_s": [r.wall_s for r in p], "rss_kb": [r.rss_kb for r in p]}
            for p, t in zip(runner.passes, runner.traced)
        ],
        "metrics": metrics, "missing": missing, **extra,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
