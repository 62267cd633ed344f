"""Workload frontends: operator definitions, DNN graphs, paper configs."""

from repro.frontends.operators import (
    OPERATOR_BUILDERS,
    OperatorParamError,
    make_operator,
    operator_feeds,
    operator_traffic_bytes,
)
from repro.frontends.workloads import (
    RESNET18_CONV_LAYERS,
    MOBILENET_V2_LAYERS,
    operator_suite,
)
from repro.frontends.networks import NETWORKS, NetworkOp, get_network

__all__ = [
    "MOBILENET_V2_LAYERS",
    "NETWORKS",
    "NetworkOp",
    "OPERATOR_BUILDERS",
    "OperatorParamError",
    "RESNET18_CONV_LAYERS",
    "get_network",
    "make_operator",
    "operator_feeds",
    "operator_suite",
    "operator_traffic_bytes",
]
