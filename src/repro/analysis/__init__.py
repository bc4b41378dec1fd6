"""Project-specific static analysis: the invariant linter.

The cross-cutting contracts of this package -- numba jittability of the
accel kernels, tier parity of the kernel registry, determinism of the
solver paths, obs/guard instrumentation coverage, and the central env
registry -- were historically enforced by convention plus runtime
tests, and the most fragile of them (jittability) only by CI's numba
job.  This package proves them at lint time instead: an AST-based rule
framework with project-specific rules, run as ``make lint-deep`` /
``python -m repro.analysis src/repro``.

Rules (each documented in its module):

``jit-safety``
    :mod:`repro.analysis.jit` -- ``accel/kernels.py`` must stay inside
    the explicit nopython whitelist, and its ``EPS`` literal must match
    ``flow/network.py``.
``tier-parity``
    :mod:`repro.analysis.parity` -- every registry kernel has a
    registered failover chain ending at the pure tier, and same-named
    tier implementations agree on their positional signatures.
``determinism``
    :mod:`repro.analysis.determinism` -- no unordered set iteration,
    ``fastmath``, or unseeded randomness in the solver paths.
``obs-coverage``
    :mod:`repro.analysis.coverage` -- public solver entry points carry
    obs spans + guard budget checkpoints, and every emitted obs event
    name has a schema in ``obs/validate.py``.
``env-discipline``
    :mod:`repro.analysis.envrule` -- ``os.environ`` is read only inside
    :mod:`repro.env`.

False positives are silenced inline with a reasoned suppression::

    x = frobnicate()  # repro: lint-ok[determinism] -- reduction is order-insensitive

(a suppression without a reason is itself a finding).  See the README
("Static analysis") for the CLI, the rule catalog, and the suppression
policy.
"""

from __future__ import annotations

from .core import RULES, Finding, Project, run_paths

# importing the rule modules registers them in RULES
from . import coverage, determinism, envrule, jit, parity  # noqa: F401, E402

__all__ = ["RULES", "Finding", "Project", "run_paths"]
