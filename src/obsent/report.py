"""The verify report: per-property results and their assembly.

The `verify` CLI command imports only this module. Its forked workers
import verify, which compiles the suites and their generators, and send
back reports made of these types, so the parent that unpickles and
prints them never compiles the suites. SUITES names the suites in run
order; verify keys its suite table by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .serialize import _finite, operator_to_json

SUITES = ("divergences", "oe-core", "sequential", "refinement", "decomposition", "thermo")

_MAX_RECORDED_VIOLATIONS = 3


def _marked(margin: float):
    """A margin as strict JSON: a nan as "NAN", an infinity as _finite writes it."""
    return "NAN" if math.isnan(margin) else _finite(margin)


@dataclass
class PropertyResult:
    """Aggregated outcome of one property over a sweep."""

    name: str
    mode: str  # "hard" | "survey"
    tolerance: float
    instances: int = 0
    passes: int = 0
    fails: int = 0
    worst_margin: float = math.inf
    violations: list = field(default_factory=list)

    def record(self, margins, instance=None):
        """Fold one margin, or an array of margins read in row-major order.
        instance(k) is the instance of the k-th margin; it is called only
        for the violations kept. Once a nan is recorded the worst margin is
        nan."""
        values = np.ravel(margins).tolist()
        self.instances += len(values)
        failed = [k for k, margin in enumerate(values) if not margin >= -self.tolerance]
        # a list's min keeps the first zero but skips a nan, which fails
        nan = any(math.isnan(values[k]) for k in failed)
        self.worst_margin = math.nan if nan else min([self.worst_margin, *values])
        self.fails += len(failed)
        self.passes += len(values) - len(failed)
        if instance is not None:
            for k in failed[: _MAX_RECORDED_VIOLATIONS - len(self.violations)]:
                # matrices are serialized only for the violations kept
                self.violations.append(
                    {key: operator_to_json(v) if isinstance(v, np.ndarray) else v
                     for key, v in dict(instance(k), margin=values[k]).items()}
                )

    def to_json(self) -> dict:
        violations = [{**v, "margin": _marked(v["margin"])} for v in self.violations]
        return {**vars(self), "worst_margin": _marked(self.worst_margin),
                "violations": violations}


@dataclass
class VerificationReport:
    suite: str
    seed: int
    n: int
    dim_max: int
    properties: list

    @property
    def hard_failures(self) -> int:
        return sum(p.fails for p in self.properties if p.mode == "hard")

    @property
    def exit_code(self) -> int:
        return 2 if self.hard_failures else 0

    def to_json(self) -> dict:
        return {
            **vars(self),
            "hard_failures": self.hard_failures,
            "exit_code": self.exit_code,
            "properties": [p.to_json() for p in self.properties],
        }
