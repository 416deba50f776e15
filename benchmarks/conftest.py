"""Shared helpers for the benchmark harness.

Every benchmark writes the rows it reproduces (the paper's table/figure
content) to ``.bench_run/results/<experiment>.txt`` at the repository root
(git-ignored) and echoes them to stdout, in addition to the
pytest-benchmark timing table.  No result table is tracked, so a test run
never dirties the checkout.
"""

from __future__ import annotations

import pathlib
from typing import List

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / ".bench_run" / "results"


class ResultTable:
    """Accumulates formatted rows for one experiment and writes them on close."""

    def __init__(self, name: str, header: str):
        self.name = name
        self.header = header
        self.rows: List[str] = []

    def add_row(self, row: str) -> None:
        self.rows.append(row)

    def write(self) -> pathlib.Path:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIR / f"{self.name}.txt"
        content = "\n".join([self.header] + self.rows) + "\n"
        path.write_text(content)
        return path


@pytest.fixture(scope="session")
def result_table_factory():
    """Session factory creating result tables that are written at teardown."""
    tables: List[ResultTable] = []

    def make(name: str, header: str) -> ResultTable:
        table = ResultTable(name, header)
        tables.append(table)
        return table

    yield make
    for table in tables:
        path = table.write()
        # Also echo to stdout so the tee'd benchmark log carries the rows.
        print(f"\n=== {table.name} ({path}) ===")
        print(table.header)
        for row in table.rows:
            print(row)
