"""Figure 8: efficiency of exact and approximation CDS algorithms.

(a)-(e): ``Exact`` vs ``CoreExact`` on the five small datasets across
h-clique sizes -- the paper's headline up-to-four-orders-of-magnitude
speedup.  (f)-(j): ``Nucleus`` vs ``PeelApp`` vs ``IncApp`` vs
``CoreApp`` on the five large datasets.

We reproduce the *shape*: CoreExact < Exact on every (dataset, h), and
CoreApp fastest among the approximations, with the gap widening on
skewed graphs.
"""

from __future__ import annotations

from ..baselines.nucleus import nucleus_densest
from ..core.core_app import core_app_densest
from ..core.core_exact import core_exact_densest
from ..core.exact import exact_densest
from ..core.inc_app import inc_app_densest
from ..core.peel import peel_densest
from ..datasets.registry import dataset_names, load
from .harness import timed

SMALL_H_VALUES = (2, 3, 4, 5)
LARGE_H_VALUES = (2, 3, 4)


def run_exact(
    names: list[str] | None = None,
    h_values: tuple[int, ...] = SMALL_H_VALUES,
    scale: float = 1.0,
) -> list[dict]:
    """Figure 8(a)-(e): Exact vs CoreExact running times."""
    if names is None:
        names = dataset_names("small")
    rows = []
    for name in names:
        graph = load(name, scale)
        for h in h_values:
            exact_result, exact_s = timed(exact_densest, graph, h)
            core_result, core_s = timed(core_exact_densest, graph, h)
            assert abs(exact_result.density - core_result.density) < 1e-6, (
                f"{name} h={h}: Exact {exact_result.density} != CoreExact {core_result.density}"
            )
            rows.append(
                {
                    "dataset": name,
                    "h": h,
                    "exact_s": exact_s,
                    "core_exact_s": core_s,
                    "speedup": exact_s / core_s if core_s > 0 else float("inf"),
                    "density": core_result.density,
                }
            )
    return rows


def run_approx(
    names: list[str] | None = None,
    h_values: tuple[int, ...] = LARGE_H_VALUES,
    scale: float = 1.0,
    include_nucleus: bool = True,
) -> list[dict]:
    """Figure 8(f)-(j): Nucleus / PeelApp / IncApp / CoreApp running times."""
    if names is None:
        names = dataset_names("large")
    rows = []
    for name in names:
        graph = load(name, scale)
        for h in h_values:
            peel_result, peel_s = timed(peel_densest, graph, h)
            inc_result, inc_s = timed(inc_app_densest, graph, h)
            app_result, app_s = timed(core_app_densest, graph, h)
            row = {
                "dataset": name,
                "h": h,
                "peel_s": peel_s,
                "inc_s": inc_s,
                "core_app_s": app_s,
                "speedup_vs_peel": peel_s / app_s if app_s > 0 else float("inf"),
                "core_density": app_result.density,
                "peel_density": peel_result.density,
            }
            if include_nucleus:
                _, nucleus_s = timed(nucleus_densest, graph, h)
                row["nucleus_s"] = nucleus_s
            rows.append(row)
    return rows
