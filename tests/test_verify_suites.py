"""The verify suites must pass on fresh random data at modest sizes, and a
run split into forked lanes must give what a serial run gives."""

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import geoschro.cli as cli
import geoschro.dynamics as dynamics
import geoschro.errors as errors
import geoschro.reduction as reduction
import geoschro.verify as verify
from geoschro.errors import MissingInput, NumericError, ParseError, SchemaError, UnknownSuite
from geoschro.tolerances import DEFAULT
from geoschro.verify import SUITE_NAMES, SUITES, VerifyCase, run_verify

REPO = Path(__file__).resolve().parent.parent


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

    monkeypatch.setattr(verify, "SUITES", {n: make(n) for n in ("alpha", "beta", "gamma")})
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


@pytest.fixture
def two_lanes(monkeypatch):
    """Two lanes on any machine: a forked child runs symplectic, analytic and
    reduction, the caller operators and dynamics."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _fake_suites(monkeypatch, **special):
    """Suites that return one case at once, named after the suite and the pid
    that ran it, except those given by name in ``special``."""
    def quick(name):
        return lambda size, seed, tol: [VerifyCase(f"{name}@{os.getpid()}", float(seed), 1.0)]

    monkeypatch.setattr(verify, "SUITES", {n: special.get(n) or quick(n) for n in SUITE_NAMES})


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raising(exc):
    def suite_fn(size, seed, tol):
        raise exc
    return suite_fn


def _verify_cli(capsys, tmp_path, suite):
    """(exit code, stdout, stderr) of an in-process `verify` of ``suite``."""
    code = cli.main(["verify", "--suite", suite, "--size", "8", "--seed", "1",
                     "--out", str(tmp_path / f"{suite}.json")])
    out, err = capsys.readouterr()
    return code, out, err


def _every_error_class(cls=errors.GeoschroError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _every_error_class(sub)


def _error_example(cls):
    if issubclass(cls, SchemaError):
        return cls("/hamiltonian/0/operator", "unknown operator 'q'")
    if issubclass(cls, MissingInput):
        return cls(Path("inputs") / ("x" * 80 + ".json"), "Is a directory")
    return cls("matrix is not Hermitian")


@pytest.mark.parametrize("cls", list(_every_error_class()), ids=lambda cls: cls.__name__)
def test_every_error_survives_pickling(cls):
    exc = _error_example(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls and str(back) == str(exc)
    for attr in ("pointer", "message", "path", "reason"):
        assert getattr(back, attr, None) == getattr(exc, attr, None)


def test_missing_input_without_reason_survives_pickling():
    exc = MissingInput("gone.json")
    back = pickle.loads(pickle.dumps(exc))
    assert (str(back), back.path, back.reason) == (str(exc), "gone.json", None)


def test_lanes_are_dealt_round_robin_and_joined_in_suite_order(two_lanes, monkeypatch):
    _fake_suites(monkeypatch)
    report = run_verify("all", 8, 3)
    ran = dict(c["name"].split("@") for c in report["cases"])
    assert list(ran) == list(SUITE_NAMES)
    assert ran["operators"] == ran["dynamics"] == str(os.getpid())
    assert ran["symplectic"] == ran["analytic"] == ran["reduction"] != str(os.getpid())
    assert all(c["measured"] == 3.0 for c in report["cases"])
    _assert_no_children()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lanes_give_the_serial_cases(two_lanes, seed):
    serial = [c.to_json_dict() for n in SUITE_NAMES for c in SUITES[n](32, seed, DEFAULT)]
    assert run_verify("all", 32, seed)["cases"] == serial
    _assert_no_children()


def test_one_suite_forks_nothing(two_lanes, monkeypatch):
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    _fake_suites(monkeypatch)
    run_verify("symplectic", 8, 1)
    assert forks == []
    run_verify("all", 8, 1)
    assert forks == [1]


@pytest.mark.parametrize("exc", [NumericError("eigensolver did not converge"),
                                 SchemaError("/size", "too small"),
                                 MissingInput("gone.json", "Is a directory"),
                                 MemoryError("Unable to allocate 1.00 TiB")],
                         ids=lambda exc: type(exc).__name__)
def test_child_lane_error_reaches_the_cli_as_in_process(two_lanes, monkeypatch, capsys,
                                                        tmp_path, exc):
    _fake_suites(monkeypatch, symplectic=_raising(exc))
    expected = ParseError if isinstance(exc, MemoryError) else type(exc)
    with pytest.raises(expected) as raised:
        run_verify("all", 8, 1)
    assert type(raised.value) is expected
    alone = _verify_cli(capsys, tmp_path, "symplectic")
    laned = _verify_cli(capsys, tmp_path, "all")
    assert alone[0] in (1, 2, 3)
    assert laned == alone and alone[1] == "" and alone[2].count("\n") == 1
    assert not any(tmp_path.iterdir())
    _assert_no_children()


@pytest.mark.parametrize("failing,first", [(("symplectic", "operators"), "symplectic"),
                                           (("operators", "analytic"), "operators"),
                                           (("analytic", "dynamics", "reduction"), "analytic")])
def test_earliest_failing_suite_wins_across_lanes(two_lanes, monkeypatch, failing, first):
    _fake_suites(monkeypatch, **{n: _raising(NumericError(f"{n} failed")) for n in failing})
    with pytest.raises(NumericError, match=f"^{first} failed$"):
        run_verify("all", 8, 1)
    _assert_no_children()


def test_lost_lane_is_a_too_large_error(two_lanes, monkeypatch, capsys, tmp_path):
    """A lane killed by a signal, as the OOM killer would at a large --size,
    takes the path of a MemoryError."""
    caller = os.getpid()

    def kill_own_lane(size, seed, tol):
        if os.getpid() == caller:
            raise AssertionError("this suite must run in a forked lane")
        os.kill(os.getpid(), signal.SIGKILL)

    _fake_suites(monkeypatch, symplectic=kill_own_lane)
    code, out, err = _verify_cli(capsys, tmp_path, "all")
    assert (code, out) == (1, "")
    assert err == ("error: verify --size 8 is too large: the lane running symplectic,"
                   " analytic, reduction ended by SIGKILL\n")
    assert not any(tmp_path.iterdir())
    _assert_no_children()


def test_interrupt_in_the_callers_lane_kills_the_others(two_lanes, monkeypatch):
    _fake_suites(monkeypatch, symplectic=lambda *a: time.sleep(60) or [],
                 operators=_raising(KeyboardInterrupt()))
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_verify("all", 8, 1)
    assert time.monotonic() - start < 10
    _assert_no_children()


def test_importing_the_cli_loads_no_process_pool():
    probe = ("import sys, geoschro.cli; "
             "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout == "[]\n", proc.stderr


def _children_of(pid: int) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # not a process, or one that has just ended
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry.name))
    return found


def _running(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def test_sigkilled_cli_leaves_no_lane_running(tmp_path):
    """The CLI killed mid-run, as perfbench does at its deadline: its lane
    must not outlive it.  At --size 128 the lane has seconds of work left, so
    one that only ended by itself would still be running 2 s after the kill."""
    main = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
            "from geoschro.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen([sys.executable, "-c", main, "verify", "--suite", "all", "--size",
                             "128", "--seed", "1", "--out", str(tmp_path / "report.json")],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        lanes = []
        while not lanes and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            lanes = _children_of(proc.pid)
        assert lanes, "the CLI forked no lane"
        time.sleep(0.2)
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 2
        while any(map(_running, lanes)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(map(_running, lanes))
    finally:
        proc.kill()
        proc.wait(timeout=10)
