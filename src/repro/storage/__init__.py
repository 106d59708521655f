"""Distributed erasure-coded storage (paper Sec. 4.2)."""

from .placement import FirstK, LeastLoaded, Placement
from .store import (
    STORAGE_SERVICE,
    DistributedStore,
    RetrieveError,
    StorageNode,
    StoreResult,
)

__all__ = [
    "DistributedStore",
    "FirstK",
    "LeastLoaded",
    "Placement",
    "RetrieveError",
    "STORAGE_SERVICE",
    "StorageNode",
    "StoreResult",
]
