"""Networking substrate: the gateway <-> cloud link.

Replaces the paper's two-VM OpenStack/public-cloud deployment with an
in-process transport carrying a configurable latency/bandwidth model, and
a real TCP transport for genuine two-process runs.
"""

from repro.net.batch import BatchCollector, PipelineConfig
from repro.net.faults import FaultEvent, FaultInjectingTransport, FaultPlan
from repro.net.latency import NetworkModel, NetworkStats, TrafficMeter
from repro.net.resilience import (
    BreakerConfig,
    CircuitBreaker,
    ResilienceConfig,
    ResilientTransport,
    RetryPolicy,
    wrap_resilient,
)
from repro.net.rpc import Request, Response, ServiceHost
from repro.net.tcp import TcpRpcServer, TcpTransport
from repro.net.transport import (
    DirectTransport,
    InProcTransport,
    Transport,
    TransportLayer,
)

__all__ = [
    "BatchCollector",
    "BreakerConfig",
    "CircuitBreaker",
    "PipelineConfig",
    "DirectTransport",
    "FaultEvent",
    "FaultInjectingTransport",
    "FaultPlan",
    "InProcTransport",
    "NetworkModel",
    "NetworkStats",
    "Request",
    "ResilienceConfig",
    "ResilientTransport",
    "Response",
    "RetryPolicy",
    "ServiceHost",
    "TcpRpcServer",
    "TcpTransport",
    "TrafficMeter",
    "Transport",
    "TransportLayer",
    "wrap_resilient",
]
