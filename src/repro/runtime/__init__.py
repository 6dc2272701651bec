"""Runtime layer: the master's control loop, compute sessions, storage accounting."""

from repro.runtime.metrics import StorageTracker
from repro.runtime.session import (
    CodedSession,
    OverDecompositionSession,
    ReplicationSession,
)

__all__ = [
    "CodedSession",
    "OverDecompositionSession",
    "ReplicationSession",
    "StorageTracker",
]
