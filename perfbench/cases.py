"""Benchmark inputs: system files and the command list of each workload.

The matrices are transcribed here so that the benchmark does not depend on
where the package keeps its own copies (the CLI's ``TABLE1_*`` tables may
move).  Complex entries are written as ``[re, im]`` pairs, the file format
the CLI reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Table 1 rows (drift A, single diffusion B); row (g) is assembled below and
# row (h) is random, so it has no file.  Row (f) is the scalar system
# dX = -100 X dt + 10 X dW, whose mean square is exp(-100 t).
TABLE1 = {
    "a": ([[-100, 0], [0, -200]], [[5, 0], [0, 6]]),
    "b": ([[-100, 0], [200, -200]], [[5, 2], [0, 6]]),
    "c": ([[-100, 20], [0, -200]], [[5, 2], [0, 6]]),
    "d": ([[-100 + 20j, 0], [2, -200 + 1j]], [[5 + 1j, 0], [2j, -6 - 10j]]),
    "e": ([[-100, 20], [7, -200]], [[5, 2], [4, 6]]),
    "f": ([[-100]], [[10]]),
    "i": ([[-100, 0], [0, -1]], [[0, 2], [2, 0]]),
}


def _case_g() -> tuple[np.ndarray, np.ndarray]:
    """Table 1 row (g): block upper-triangular 6x6 drift and diffusion."""
    a1 = np.array([[0.1, 4, 20], [0, 0.1, 5], [0, 0, 0.1]])
    a2 = np.array([[-0.2, 3, 100], [0, -0.2, 50], [0, 0, -0.2]])
    b1 = np.array([[2, 30, 10], [0, 2, 50], [0, 0, 2]])
    b2 = np.array([[4, 6, 20], [0, 4, 40], [0, 0, 4]])
    a12 = np.array([
        [2.2857e-2, -2.3547e-2, -6.8279e-2],
        [9.3914e-2, -9.6719e-2, -2.8049e-1],
        [2.8585e-1, -2.9443e-1, -8.5382e-1],
    ])
    b12 = np.array([
        [1.2606e-1, -4.6007e-1, 7.0963e-3],
        [1.8156e-1, -6.6259e-1, 1.0235e-2],
        [1.4481e-1, -5.2845e-1, 8.1625e-3],
    ])
    zero = np.zeros((3, 3))
    return np.block([[a1, a12], [zero, a2]]), np.block([[b1, b12], [zero, b2]])


# Two-channel 2x2 systems.  B1 and B2 do not commute; B1 and B2c = B1/2 + I/10 do.
MC_A = [[-1.0, 0.5], [0.0, -2.0]]
MC_B1 = [[0.3, 0.2], [0.0, 0.1]]
MC_B2 = [[0.0, 0.4], [-0.4, 0.2]]
MC_B2C = [[0.25, 0.1], [0.0, 0.15]]

# mu_2 of this matrix is -3 + |2i| = -1 exactly: its Hermitian part is
# [[-3, 2i], [-2i, -3]].
LOGNORM_MATRIX = [[-3, 4j], [0, -3]]
LOGNORM_MU2 = -1.0


def _entry(z) -> float | list[float]:
    z = complex(z)
    return z.real if z.imag == 0 else [z.real, z.imag]


def matrix_obj(rows) -> dict:
    arr = np.asarray(rows, dtype=np.complex128)
    return {
        "rows": arr.shape[0],
        "cols": arr.shape[1],
        "data": [_entry(z) for z in arr.ravel()],
    }


def system_obj(a, bs, name: str) -> dict:
    return {"name": name, "A": matrix_obj(a), "B": [matrix_obj(b) for b in bs]}


def input_files() -> dict[str, dict]:
    """Every input file the workloads read, by file name."""
    files = {f"case_{k}.json": system_obj(a, [b], f"table1 case {k}")
             for k, (a, b) in TABLE1.items()}
    g_a, g_b = _case_g()
    return {
        **files,
        "case_g.json": system_obj(g_a, [g_b], "table1 case g"),
        "noncommuting.json": system_obj(MC_A, [MC_B1, MC_B2], "two channels, B1 B2 != B2 B1"),
        "commuting.json": system_obj(MC_A, [MC_B1, MC_B2C], "two channels, B1 B2 = B2 B1"),
        "matrix.json": matrix_obj(LOGNORM_MATRIX),
    }


def write_inputs(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, obj in input_files().items():
        (directory / name).write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def load_system(directory: Path, name: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """(A, [B...]) as complex arrays, read back from a written input file."""
    obj = json.loads((directory / name).read_text(encoding="utf-8"))

    def arr(m: dict) -> np.ndarray:
        vals = [complex(*v) if isinstance(v, list) else complex(v) for v in m["data"]]
        return np.array(vals, dtype=np.complex128).reshape(m["rows"], m["cols"])

    return arr(obj["A"]), [arr(b) for b in obj["B"]]


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its arguments (without ``--seed``) and its role.

    ``kind`` is ``estimate`` (time to a stability verdict) or ``simulate``
    (an ensemble run of ``path_steps`` = paths x steps).  ``check`` names
    the oracle in :mod:`oracle` that validates stdout.  ``seeded`` is false
    for commands without a Monte Carlo stage, which take no ``--seed``.
    """

    args: tuple[str, ...]
    kind: str
    check: str
    path_steps: int = 0
    seeded: bool = True


def _simulate(system: str, h: str, t_end: str, paths: int, check: str,
              scheme: str = "milstein") -> Command:
    return Command(
        ("simulate", system, "--h", h, "--t-end", t_end, "--paths", str(paths),
         "--checkpoints", "10", "--scheme", scheme),
        "simulate", check, paths * round(float(t_end) / float(h)),
    )


# Why each workload exists (recorded in BENCHMARK.json as well):
#  table1        - the reference table as users run it; LAPACK eigvalsh at
#                  n = 6 and n = 100 dominates, no m = 2 sampler.  The case
#                  (a) and (c) simulations give the workload a simulate
#                  figure; their step 2e-5 keeps the scheme's bias below the
#                  Monte Carlo error.  They follow the two estimates, so that
#                  their times sample the host's speed at two points of a
#                  pass: on a shared host one short command's time varies by
#                  about 13% from run to run.
#  small_systems - interactive single-channel use on 2x2 and scalar systems:
#                  n <= 2 closed forms, the definitional h-loop, p = 1/inf,
#                  exact m = 1 increments and seven process start-ups.
#  multichannel  - m = 2 systems, where the Levy-area sampler dominates;
#                  Euler-Maruyama (no Levy area) and a commuting pair are the
#                  in-workload controls for a sampler change.  The estimate
#                  runs 2e5 samples, not the 1e5 first planned, so that its
#                  time is a few seconds and its median steady.
WORKLOADS: dict[str, tuple[Command, ...]] = {
    "table1": (
        Command(("table1",), "estimate", "table1"),
        _simulate("case_a.json", "2e-5", "0.02", 10_000, "sim_case_a"),
        Command(("slognorm", "case_g.json", "--method", "both"), "estimate", "case_g"),
        _simulate("case_c.json", "2e-5", "0.02", 10_000, "sim_case_c"),
    ),
    "small_systems": (
        Command(("slognorm", "case_e.json", "--method", "both"), "estimate", "case_e"),
        Command(("slognorm", "case_d.json", "--method", "both"), "estimate", "case_d"),
        Command(("slognorm", "case_e.json", "--method", "direct", "--p", "1"),
                "estimate", "case_e_p1"),
        Command(("slognorm", "case_e.json", "--method", "direct", "--p", "inf"),
                "estimate", "case_e_pinf"),
        Command(("examples", "--which", "pendulum"), "estimate", "pendulum"),
        Command(("lognorm", "matrix.json", "--p", "2"), "estimate", "lognorm", seeded=False),
        _simulate("case_f.json", "1e-4", "0.02", 100_000, "sim_case_f"),
    ),
    "multichannel": (
        Command(("slognorm", "noncommuting.json", "--method", "both", "--samples", "200000"),
                "estimate", "noncommuting"),
        _simulate("noncommuting.json", "0.01", "1", 20_000, "sim_noncommuting"),
        _simulate("noncommuting.json", "0.01", "1", 20_000, "sim_noncommuting",
                  scheme="euler_maruyama"),
        _simulate("commuting.json", "0.01", "1", 10_000, "sim_commuting"),
    ),
}
