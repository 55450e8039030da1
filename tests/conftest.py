import contextlib
import signal
import sys

import pytest

from rankcodes import FieldTower, GabidulinCode, default_generator


@contextlib.contextmanager
def bounded(seconds: float):
    """Turn a hang inside the block into a test failure: SIGALRM after
    `seconds` raises TimeoutError.  Main thread only."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def table_bytes(linear_map):
    """Bytes held by the tables of a `LinearMap`: each list and each
    distinct entry (a map with no tables holds one image per digit)."""
    seen, total = set(), sys.getsizeof(linear_map.tables)
    for table in linear_map.tables:
        total += sys.getsizeof(table)
        for entry in table if isinstance(table, list) else ():
            if id(entry) not in seen:
                seen.add(id(entry))
                total += sys.getsizeof(entry)
    return total


@pytest.fixture(scope="session")
def gf16():
    return FieldTower(2, 4)


@pytest.fixture(scope="session")
def gf64():
    return FieldTower(2, 6)


@pytest.fixture(scope="session")
def gf4096():
    return FieldTower(2, 12)


@pytest.fixture(scope="session")
def gf27():
    return FieldTower(3, 3)


@pytest.fixture(scope="session")
def tiny_code(gf16):
    """[4, 2, 3] code over GF(2^4), small enough for exhaustive oracles."""
    return GabidulinCode(gf16, 2, g=default_generator(gf16))


@pytest.fixture(scope="session")
def medium_code(gf4096):
    """[12, 8, 5] code over GF(2^12), capability 2."""
    return GabidulinCode(gf4096, 8, g=default_generator(gf4096))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    rows = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            if getattr(rep, "when", "call") != "call":
                continue
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_c" in nodeid:
                name = nodeid.split("::", 1)[1]
                rows.append((name, "PASS" if status == "passed" else "FAIL"))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, verdict in sorted(rows):
            terminalreporter.write_line(f"{verdict}  {name}")
