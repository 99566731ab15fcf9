"""The benchmark's view of the package: the names ``perfbench`` imports,
patches and calls must keep working.

Runs the in-process checks of ``perfbench/selfcheck.py`` (span arithmetic,
the tracer's patching of gldd module attributes, the output checks of the
workloads).  Its subprocess check, which copies ``perfbench`` and starts
``run.py``, stays in the self-check alone.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def selfcheck():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import selfcheck
        yield selfcheck
    finally:
        sys.path.remove(str(PERFBENCH))


def test_span_arithmetic(selfcheck):
    selfcheck.check_span_arithmetic()


def test_tracer_patches_and_restores(selfcheck):
    selfcheck.check_tracer()


def test_output_checks(selfcheck):
    selfcheck.check_output_checks()
