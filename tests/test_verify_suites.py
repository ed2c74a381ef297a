"""The verify suites must pass on fresh random data at modest sizes."""

import pytest

import geoschro.verify as verify
from geoschro.errors import UnknownSuite
from geoschro.verify import SUITE_NAMES, VerifyCase, run_verify


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_passes(suite):
    report = run_verify(suite, 16, 1)
    assert report["suite"] == suite
    assert report["seed"] == 1
    assert isinstance(report["elapsed"], float)
    assert report["cases"]
    for case in report["cases"]:
        assert set(case) == {"name", "measured", "bound", "pass"}
        assert case["pass"], f"{suite}/{case['name']}: {case['measured']:.3e} > {case['bound']:.3e}"
        assert case["measured"] <= case["bound"]


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_verify("quantumfoo", 16, 1)


def test_same_seed_reproduces_measurements():
    a = run_verify("symplectic", 16, 7)
    b = run_verify("symplectic", 16, 7)
    assert a["cases"] == b["cases"]


def test_all_merges_in_declared_order(monkeypatch):
    def make(name):
        def suite_fn(size, seed, tol):
            return [VerifyCase(f"{name}_case", 0.0, 1.0)]
        return suite_fn

    names = ("alpha", "beta", "gamma")
    monkeypatch.setattr(verify, "SUITE_NAMES", names)
    monkeypatch.setattr(verify, "SUITES", {n: make(n) for n in names})
    report = run_verify("all", 8, 0)
    assert [c["name"] for c in report["cases"]] == ["alpha_case", "beta_case", "gamma_case"]
