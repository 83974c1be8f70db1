"""The functions the benchmark's tracer groups its per-layer metrics by.

``perfbench/tracer.py`` wraps every public function defined in a package
module and, for the names in its ``ATTRS`` table, binds each call's
arguments to the signature and reads attributes from the arguments and the
result.  A function that is renamed, made private, moved to another module
or given other parameter names makes those metrics go missing while every
command still succeeds, so this checks each traced name with a small real
call, read the way the tracer reads it.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from slognorm.sdesim import SimConfig
from slognorm.slognorm import SdeSystem

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_SYSTEM = SdeSystem([[-1.0, 0.5], [0.0, -2.0]], ([[0.3, 0.0], [0.1, 0.2]],))

#: traced name -> positional arguments of a small call
_CALLS = {
    "matcore.lambda_max_hermitian_batch": lambda: (np.eye(3)[np.newaxis],),
    "matcore.matrix_norm_batch": lambda: (np.eye(2)[np.newaxis], 2),
    "lognorm.mu_batch": lambda: (np.eye(2)[np.newaxis], 2),
    "slognorm.nu_direct": lambda: (_SYSTEM, 2, 2),
    "slognorm.nu_definitional": lambda: (_SYSTEM, 2, 2),
    "slognorm.sample_wiener_increments": lambda: (np.random.default_rng(0), 4, 2, 0.01),
    "sdesim.simulate_moments": lambda: (
        _SYSTEM, [1.0, 1.0], SimConfig(h=0.01, t_end=0.02, paths=4, checkpoints=1)),
}


def _tracer_attrs() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.ATTRS


_ATTRS = _tracer_attrs()


def test_every_traced_name_has_a_call():
    assert sorted(_ATTRS) == sorted(_CALLS)


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_traced_function_keeps_its_name_and_signature(name):
    module, attr = name.split(".")
    mod = importlib.import_module(f"slognorm.{module}")
    fn = getattr(mod, attr, None)
    # the tracer wraps public functions defined in the module it looks in
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name
    args = _CALLS[name]()
    result = fn(*args)
    bound = inspect.signature(fn).bind(*args)
    bound.apply_defaults()
    attrs = _ATTRS[name](bound.arguments, result)
    assert attrs and all(value is not None for value in attrs.values()), attrs
