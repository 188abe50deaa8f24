"""Instrumentation counters.

Every byte of data that reaches disk is counted in exactly one category
here, which is what lets tests prove the write-once property: besides the
(tiny, uncounted) manifest, the only durable bytes are log records, appended
or compacted, and index snapshots.
"""


class Counters:
    __slots__ = (
        "append_bytes",       # serialized log records written through append()
        "compaction_bytes",   # serialized log records written by compaction
        "snapshot_bytes",     # index snapshot files
        "log_point_reads",    # positioned read_at() calls
        "seq_scans",          # number of sequential scan passes
        "group_flushes",      # flush() calls that synced the active segment
        "fsyncs",             # file syncs issued
        "records_replayed",   # records replayed during recovery
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counters({self.snapshot()})"
