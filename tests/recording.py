"""How the tests read a run's trace: as `IntervalRecord`s."""

from edcasim.engine import IntervalRecord


def record_sink(records: list):
    """A trace sink that appends each row it is handed to `records`, as an
    `IntervalRecord`."""
    def sink(t_ms: int, rows: list[tuple]) -> None:
        records.extend(IntervalRecord(t_ms, *row) for row in rows)

    return sink
