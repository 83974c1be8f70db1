"""Run one slognorm CLI command with spans around each module's functions.

Usage: python tracer.py SPANS.jsonl CLI_ARG...

Every public function defined in the package's modules is wrapped, and
the wrapper is bound under each name that any package module (or the
package itself) uses to look the function up.  The CLI command as a whole
is the root span, named ``cli``.  Spans stay in memory and are written as
JSON lines when the command ends; the first line lists the wrapped
functions, so a function that a refactor removed reads as missing, not as
never called.  Nothing in the package is edited and stdout is untouched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

MODULES = ("matcore", "lognorm", "slognorm", "sdesim", "cli")


def _items(arr) -> int:
    shape = getattr(arr, "shape", ())
    return math.prod(shape[:-2]) if len(shape) >= 2 else 1


def _p_label(p) -> str:
    return "inf" if p in (math.inf, "inf") else str(int(float(p)))


# Attributes of a call that the per-layer metrics group by: each function
# maps (bound arguments, result) to a dict.  Missing arguments or changed
# result types only drop the attributes.
def _lambda_attrs(a, _r):
    n = a["H"].shape[-1]
    return {"variant": "closed_form" if n <= 2 else f"lapack.n{n}", "items": _items(a["H"])}


def _norm_attrs(a, _r):
    dtype = "complex" if a["M"].dtype.kind == "c" else "real"
    return {"variant": dtype, "items": _items(a["M"])}


def _mu_attrs(a, _r):
    return {"variant": "p" + _p_label(a["p"]), "items": _items(a["M"])}


def _wiener_attrs(a, _r):
    return {"variant": f"m{a['m']}", "items": int(a["count"])}


def _estimate_attrs(_a, r):
    return {"samples": int(r.samples), "bias_warning": bool(r.bias_warning)}


def _simulate_attrs(a, r):
    cfg = a["cfg"]
    return {"path_steps": int(cfg.paths) * int(cfg.steps), "diverged": int(r.diverged[-1])}


ATTRS = {
    "matcore.lambda_max_hermitian_batch": _lambda_attrs,
    "matcore.matrix_norm_batch": _norm_attrs,
    "lognorm.mu_batch": _mu_attrs,
    "slognorm.sample_wiener_increments": _wiener_attrs,
    "slognorm.nu_direct": _estimate_attrs,
    "slognorm.nu_definitional": _estimate_attrs,
    "sdesim.simulate_moments": _simulate_attrs,
}


class Tracer:
    """In-memory span recorder for one thread: commands run with one worker."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next = 0

    def span(self, name: str, fn, args, kwargs, attrs=None):
        sid = self._next
        self._next += 1
        stack = self._stack
        record = {"id": sid, "parent": stack[-1] if stack else None, "name": name}
        stack.append(sid)
        record["t0"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["t1"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)
        if attrs is not None:
            try:
                bound = _signature(fn).bind(*args, **kwargs)
                bound.apply_defaults()
                record.update(attrs(bound.arguments, result))
            except (AttributeError, KeyError, TypeError, ValueError):
                record["attrs_missing"] = True
        return result


@functools.lru_cache(maxsize=None)
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def install(tracer: Tracer) -> tuple[list[str], dict]:
    """Wrap the package's public functions; returns (wrapped names, modules)."""
    pkg = importlib.import_module("slognorm")
    mods = {}
    for name in MODULES:
        try:
            mods[name] = importlib.import_module(f"slognorm.{name}")
        except ModuleNotFoundError:
            if name == "cli":
                raise
    wrappers, names = {}, []
    for short, mod in mods.items():
        if short == "cli":
            continue  # the command itself is the root span "cli"
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"

            def wrapper(*args, _fn=obj, _name=name, **kwargs):
                return tracer.span(_name, _fn, args, kwargs, ATTRS.get(_name))

            wrappers[id(obj)] = functools.update_wrapper(wrapper, obj)
            names.append(name)
    for mod in (pkg, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                setattr(mod, attr, wrappers[id(obj)])
    return sorted(names), mods


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    wrapped, mods = install(tracer)
    code = 0
    try:
        tracer.span("cli", mods["cli"].cli.main, (cli_args,),
                    {"prog_name": "slognorm", "standalone_mode": True})
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"wrapped": wrapped}) + "\n")
            for record in tracer.spans:
                fh.write(json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
