"""Max-flow / min-cut substrate and DSD network builders."""

from . import builders, dinic
from .network import FlowNetwork
from .parametric import ParametricNetwork

__all__ = ["FlowNetwork", "ParametricNetwork", "dinic", "builders"]
