"""Exception types shared across the store."""


class LogStoreError(Exception):
    """Base class for all logstore errors."""


class CorruptRecordError(LogStoreError):
    """A log record failed its checksum or could not be decoded."""


class InvalidPositionError(LogStoreError):
    """A log position does not point at a readable record."""


class LsnGapError(LogStoreError):
    """An append violated per-partition LSN contiguity."""


class PartitionFaultError(LogStoreError):
    """The partition entered a read-only fault state after an IO failure."""


class NotLeaderError(LogStoreError):
    """A modification was submitted to a follower."""


class SnapshotCorruptError(LogStoreError):
    """An index snapshot failed validation on load."""


class ReadRejectedError(LogStoreError):
    """A follower read asked for an LSN beyond the local log frontier."""


class PromotionRefusedError(LogStoreError):
    """Promotion target is not the freshest reachable replica."""


class ConfigError(LogStoreError):
    """Invalid node configuration."""
