"""Shared fixtures: exhaustive space runs are computed once per session.

The acceptance module also gets a terminal-summary hook so every
criterion prints its own pass/fail line at the end of the run.
"""

import time
import warnings

import pytest

from ctm_lab.ctm import to_ctm
from ctm_lab.data import builtin_table
from ctm_lab.space import SpaceSpec, run_space

# When a hypothesis property fails, its pytest plugin imports
# hypothesis.extra._patching, which imports libcst where it is installed,
# and libcst's import of mypy_extensions warns DeprecationWarning. Under
# filterwarnings = ["error"] that warning is an INTERNALERROR that ends the
# whole run at the first failing property; importing the module here, once,
# with the warning ignored, lets the failure be reported like any other.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:  # hypothesis without libcst
    pass

GOLDENS = __import__("pathlib").Path(__file__).parent / "goldens"


def golden_bytes(name: str) -> bytes:
    return (GOLDENS / name).read_bytes()


def golden_text(name: str) -> str:
    return (GOLDENS / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def d2_zero_freq():
    return run_space(SpaceSpec(2))


@pytest.fixture(scope="session")
def d2_zero_table(d2_zero_freq):
    return to_ctm(d2_zero_freq)


@pytest.fixture(scope="session")
def d3_zero_timed():
    """Fresh full (3,2) run at workers=4, with its wall time; (3,2) is below
    the pool threshold, so it runs in one process."""
    spec = SpaceSpec(3)
    start = time.perf_counter()
    freq = run_space(spec, workers=4)
    elapsed = time.perf_counter() - start
    return freq, elapsed


@pytest.fixture(scope="session")
def d3_zero_freq(d3_zero_timed):
    return d3_zero_timed[0]


@pytest.fixture(scope="session")
def d3_zero_table(d3_zero_freq):
    return to_ctm(d3_zero_freq)


@pytest.fixture(scope="session")
def d3_both_freq():
    return run_space(SpaceSpec(3, blank_mode="both"), workers=2)


@pytest.fixture(scope="session")
def d3_both_table(d3_both_freq):
    return to_ctm(d3_both_freq)


@pytest.fixture(scope="session")
def d3_zero_builtin():
    return builtin_table("d3_zero")


@pytest.fixture(scope="session")
def d3_both_builtin():
    return builtin_table("d3_both")


_ACCEPTANCE_RESULTS = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_acceptance" not in str(item.fspath):
        return
    label = item.function.__doc__ or item.name
    _ACCEPTANCE_RESULTS[item.name] = (report.passed, label.strip().splitlines()[0])


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        passed, label = _ACCEPTANCE_RESULTS[name]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{status}  {label}")
