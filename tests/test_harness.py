"""The test suite's own harness."""

from pathlib import Path

import pytest

CONFTEST = Path(__file__).with_name("conftest.py")


def test_a_failing_property_test_is_reported_not_an_internal_error(pytester):
    """With every warning an error, a failing @given test under this suite's
    conftest gets an ordinary failure report and the session ends normally."""
    pytester.makeconftest(CONFTEST.read_text(encoding="utf-8"))
    pytester.makeini("[pytest]\nfilterwarnings = error\n")
    pytester.makepyfile(test_inner="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0
    """)
    result = pytester.runpytest_subprocess()
    result.assert_outcomes(failed=1)
    assert result.ret == pytest.ExitCode.TESTS_FAILED
    result.stdout.fnmatch_lines(["FAILED test_inner.py::test_fails*"])
    for lines in (result.stdout, result.stderr):
        lines.no_fnmatch_line("*INTERNALERROR*")
