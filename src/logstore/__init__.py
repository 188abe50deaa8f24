"""Write-once key-value store: the append-only log is the database, an
adaptive radix tree over it is the index, and recovery only ever rebuilds
the index."""

from .art import AdaptiveRadixTree, IndexEntry
from .cache import CacheConfig, FifoCache, LruCache, TwoStageCache
from .engine import Partition, Store, route
from .errors import (
    ConfigError,
    CorruptRecordError,
    LogStoreError,
    LsnGapError,
    NotLeaderError,
    PartitionFaultError,
    PromotionRefusedError,
    ReadRejectedError,
    SnapshotCorruptError,
)
from .recovery import recover_partition, recover_store
from .replication import PartitionReplica, freshness_score
from .wal import (
    KIND_DELETE,
    KIND_PUT,
    LogPosition,
    LogRecord,
    SegmentStore,
    decode_record,
    encode_record,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveRadixTree",
    "CacheConfig",
    "ConfigError",
    "CorruptRecordError",
    "FifoCache",
    "IndexEntry",
    "KIND_DELETE",
    "KIND_PUT",
    "LogPosition",
    "LogRecord",
    "LogStoreError",
    "LruCache",
    "LsnGapError",
    "NotLeaderError",
    "Partition",
    "PartitionFaultError",
    "PartitionReplica",
    "PromotionRefusedError",
    "ReadRejectedError",
    "SegmentStore",
    "SnapshotCorruptError",
    "Store",
    "TwoStageCache",
    "decode_record",
    "encode_record",
    "freshness_score",
    "recover_partition",
    "recover_store",
    "route",
    "__version__",
]
