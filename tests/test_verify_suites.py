"""The verify suites must pass on fresh random data at modest sizes."""

import pytest

import geoschro.dynamics as dynamics
import geoschro.reduction as reduction
import geoschro.verify as verify
from geoschro.errors import ParseError, UnknownSuite
from geoschro.tolerances import DEFAULT
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


def test_reduction_suite_integrates_each_flow_once(monkeypatch):
    calls = {"propagate": 0, "reduced_propagate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    originals = {"propagate": dynamics.propagate,
                 "reduced_propagate": reduction.reduced_propagate}
    for module in (reduction, verify):
        for name, fn in originals.items():
            monkeypatch.setattr(module, name, counted(name, fn), raising=False)
    cases = verify.suite_reduction(16, 1, DEFAULT)
    assert calls == {"propagate": 1, "reduced_propagate": 1}
    assert len(cases) == 10 and all(c.passed for c in cases)


def test_dynamics_suite_integrates_the_driven_dt_1e3_flow_once(monkeypatch):
    runs = []

    def counted(H, psi0, spec, *args, **kwargs):
        runs.append((H.is_autonomous, spec.method, spec.dt))
        return dynamics.propagate(H, psi0, spec, *args, **kwargs)

    monkeypatch.setattr(verify, "propagate", counted)
    cases = verify.suite_dynamics(16, 1, DEFAULT)
    assert runs.count((False, "magnus2", 1e-3)) == 1
    assert len(cases) == 8 and all(c.passed for c in cases)


@pytest.mark.parametrize("suite,least", [("symplectic", 1), ("operators", 11), ("analytic", 12),
                                         ("dynamics", 3), ("reduction", 3)])
def test_suite_rejects_size_below_its_minimum(suite, least):
    with pytest.raises(ParseError, match=f"--suite {suite} needs --size >= {least}"):
        run_verify(suite, least - 1, 1)


def test_negative_seed_is_rejected_before_any_suite(monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "SUITES", {n: lambda *a: ran.append(a) or [] for n in SUITE_NAMES})
    with pytest.raises(ParseError, match="--seed"):
        run_verify("all", 16, -1)
    assert ran == []
