"""The domain of every value a caller or the CLI sets, stated once: DOMAINS
maps each name to a rule, the text an error quotes, and the predicate that
tests it.  A rule on a count, such as ``epochs >= 0``, also asks for an int.
``check`` runs where a value is consumed, once per call."""

import math
from numbers import Integral, Real

from .errors import InvalidOption


def _count(low: int):
    return f">= {low}", lambda v: isinstance(v, Integral) and v >= low


def _real(rule: str, ok):
    return rule, lambda v: isinstance(v, Real) and math.isfinite(v) and ok(v)


def _one_of(*names: str):
    return f"one of {', '.join(names)}", lambda v: isinstance(v, str) and v in names


DOMAINS = {
    **dict.fromkeys(("epochs", "depth", "samples"), _count(0)),
    **dict.fromkeys(("batch_size", "grid_points", "k", "num_vars", "width", "target_edges", "sizes",
                     "num_input_distributions", "num_sums", "num_repetitions", "num_latents"), _count(1)),
    **dict.fromkeys(("mu", "noise"), _real("finite and >= 0", lambda v: v >= 0)),
    **dict.fromkeys(("lam", "lr"), _real("finite and > 0", lambda v: v > 0)),
    **dict.fromkeys(("smoothing_alpha", "r2_threshold"), _real("in [0, 1]", lambda v: 0 <= v <= 1)),
    "fraction": _real("in (0, 1]", lambda v: 0 < v <= 1),
    "grid_radius": _real("finite", lambda v: True),
    "schedule": _one_of("fixed", "adaptive_dof", "layer_mean_flow"),
    "mode": _one_of("1d", "2d"),
    "leaf_family": _one_of("gauss", "bern"),
}


def check(**values) -> None:
    """Raise InvalidOption, as "{name} must be {rule}, got {value!r}", for
    the first value outside its name's domain."""
    for name, value in values.items():
        rule, ok = DOMAINS[name]
        if not ok(value):
            raise InvalidOption(f"{name} must be {rule}, got {value!r}")
