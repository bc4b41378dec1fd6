"""Central typed registry of every environment variable this package reads.

Environment knobs used to be scattered ``os.environ.get`` calls across
``accel``, ``obs``, ``guard``, ``flow`` and ``cliques`` -- each with its
own truthiness convention and no single place to learn what exists.
This module is now the only place in ``repro`` that touches
``os.environ`` (the ``env-discipline`` rule of :mod:`repro.analysis`
enforces it): every variable is declared once with its type, default,
and documentation, and read through one of the typed accessors.

Two boolean conventions predate this module and are preserved exactly:

``flag``
    Any non-empty string is true (so ``REPRO_NO_NUMPY=0`` still
    disables numpy -- the historical opt-out semantics).
``switch``
    Only ``1 / true / yes / on`` (case-insensitive, stripped) is true;
    anything else is false (``REPRO_CHECK`` semantics).

``python -m repro.env`` prints the variable table as Markdown -- the
README's "Environment variables" table is generated from it (the doc
test pins the two against each other).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

__all__ = [
    "EnvVar",
    "REGISTRY",
    "flag",
    "switch",
    "text",
    "number",
    "markdown_table",
]


@dataclass(frozen=True)
class EnvVar:
    """One registered environment variable.

    ``kind`` selects the accessor that applies (``"flag"``,
    ``"switch"``, ``"text"``, ``"number"``); ``external`` marks
    variables consumed by a dependency or by CI rather than read by this
    package (registered so the generated documentation is complete, but
    not readable through the typed accessors).
    """

    name: str
    kind: str
    default: Union[bool, str, float, None]
    doc: str
    external: bool = False


def _var(name: str, kind: str, default, doc: str, external: bool = False) -> EnvVar:
    return EnvVar(name=name, kind=kind, default=default, doc=doc, external=external)


#: Every environment variable the package (or its CI) consumes, by name.
#: Reads of anything not in this table raise ``KeyError`` -- adding a
#: knob means declaring it here first.
REGISTRY: dict[str, EnvVar] = {
    v.name: v
    for v in (
        _var(
            "REPRO_NO_NUMPY", "flag", False,
            "Force the pure-python tier everywhere numpy would be used: the "
            "accel registry, the vectorised Dinic BFS, CSR assembly, and the "
            "clique enumeration kernels.  Any non-empty value counts.",
        ),
        _var(
            "REPRO_NO_NUMBA", "flag", False,
            "Disable just the numba accel tier (numpy paths stay on).",
        ),
        _var(
            "REPRO_NUMBA_INTERP", "flag", False,
            "Select the numba tier with the kernels run *interpreted* when "
            "numba itself is missing -- slow, but byte-for-byte the code the "
            "JIT would compile; how no-numba CI pins the tier's bit-identity.",
        ),
        _var(
            "REPRO_TRACE", "text", "",
            "Enable the obs trace at import: ``1/true/yes/on`` turns on the "
            "in-memory collector; any other non-empty value is a path that "
            "additionally receives the trace as JSON lines.",
        ),
        _var(
            "REPRO_CHECK", "switch", False,
            "Arm the invariant sanitizer: audit every flow solve "
            "(conservation, capacity, min-cut duality) and recompute every "
            "result density from scratch.  ``1/true/yes/on`` only.",
        ),
        _var(
            "REPRO_FAULT", "text", "",
            "Deterministic fault plan for the accel kernels: "
            "``<kernel>:<nth>[,<kernel>:<nth>...]`` makes the nth call of "
            "each named kernel raise, exercising the failover chains.",
        ),
        _var(
            "REPRO_SNAPSHOT_DIR", "text", "",
            "Directory of the default snapshot store (``repro.serve``): "
            "precomputed query artifacts persist to "
            "``<dir>/snapshots.sqlite`` (WAL) and survive process "
            "restarts.  Empty (the default) keeps the default cache "
            "memory-only.",
        ),
        _var(
            "REPRO_SNAPSHOT_CAP", "number", 0,
            "LRU byte cap for the default snapshot store: after each "
            "save, least-recently-used snapshots are evicted until the "
            "store fits (eviction counters feed the obs serve rollup).  "
            "0 means unbounded.",
        ),
        _var(
            "REPRO_BENCH_SCALE", "number", 0.25,
            "Scale factor for the benchmark surrogate datasets (the bench "
            "suite's smoke runs use 0.1).",
        ),
        _var(
            "REPRO_LINT_SELECT", "text", "",
            "Default ``--select`` for ``python -m repro.analysis``: a "
            "comma-separated list of rule ids to run (empty = all rules).",
        ),
        _var(
            "REPRO_LINT_IGNORE", "text", "",
            "Default ``--ignore`` for ``python -m repro.analysis``: a "
            "comma-separated list of rule ids to skip.",
        ),
        _var(
            "NUMBA_CACHE_DIR", "text", "",
            "Where ``njit(cache=True)`` persists compiled kernels (read by "
            "numba itself; CI caches this directory keyed on the kernel "
            "source).",
            external=True,
        ),
        _var(
            "NUMBA_DISABLE_JIT", "flag", False,
            "Numba's own kill-switch: compiled kernels run interpreted.  Not "
            "read by this package (prefer REPRO_NO_NUMBA, which re-tiers the "
            "registry instead of silently slowing it down).",
            external=True,
        ),
        _var(
            "PYTHONPATH", "text", "",
            "Must include ``src`` for the no-install developer workflow "
            "(every Makefile target sets it).",
            external=True,
        ),
    )
}


def _raw(name: str, kind: str) -> Optional[str]:
    """The single ``os.environ`` touchpoint of the whole package."""
    spec = REGISTRY[name]  # KeyError = undeclared variable: declare it above
    if spec.external:
        raise KeyError(
            f"{name} is registered as external (consumed by a dependency, "
            f"not readable through repro.env)"
        )
    if spec.kind != kind:
        raise TypeError(f"{name} is a {spec.kind!r} variable, not {kind!r}")
    return os.environ.get(name)


def flag(name: str) -> bool:
    """Historical opt-out semantics: any non-empty string is true."""
    return bool(_raw(name, "flag"))


def switch(name: str) -> bool:
    """Strict boolean: ``1 / true / yes / on`` (stripped, lowercased)."""
    value = _raw(name, "switch")
    return (value or "").strip().lower() in ("1", "true", "yes", "on")


def text(name: str) -> str:
    """String value, empty string when unset."""
    return _raw(name, "text") or ""


def number(name: str) -> float:
    """Float value, the registered default when unset or empty."""
    value = _raw(name, "number")
    if value is None or value == "":
        spec = REGISTRY[name]
        return float(spec.default)  # type: ignore[arg-type]
    return float(value)


def markdown_table() -> str:
    """The registry as a Markdown table (the README's env-var section)."""
    rows = [
        "| Variable | Type | Default | Meaning |",
        "| --- | --- | --- | --- |",
    ]
    for spec in REGISTRY.values():
        default = "" if spec.default in (False, "", None) else str(spec.default)
        doc = " ".join(spec.doc.replace("``", "`").split())
        kind = spec.kind + (" (external)" if spec.external else "")
        rows.append(f"| `{spec.name}` | {kind} | {default} | {doc} |")
    return "\n".join(rows)


if __name__ == "__main__":
    print(markdown_table())
