"""Shared benchmark configuration.

Bench scales are larger than the unit-test scales but still
Python-friendly; the shapes (not absolute times) are what each bench
asserts.  Every bench writes its rendered table to
``benchmarks/results/``, so a run's exact output can be read beside
the paper's table.
"""

import pathlib

import pytest

from repro.bench import dbpedia_database, lubm_database

#: Bench scales — the runner defaults, restated for visibility.
LUBM_UNIVERSITIES = 10
DBPEDIA_SCALE = 6
DBPEDIA_PADDING = 6

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_lubm():
    return lubm_database(LUBM_UNIVERSITIES)


@pytest.fixture(scope="session")
def bench_dbpedia():
    return dbpedia_database(DBPEDIA_SCALE)


@pytest.fixture(scope="session")
def save_table():
    """Write a rendered table under benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, rendered: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(rendered + "\n")
        print(f"\n=== {name} ===\n{rendered}\n")

    return _save
