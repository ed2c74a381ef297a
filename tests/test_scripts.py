"""Smoke runs of scripts/convergence_scan.py, and the pair statistics of
scripts/bench.py."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _script(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("extra", [[], ["--driven"]], ids=["autonomous", "driven"])
def test_convergence_scan_sees_second_order_cayley2(capsys, extra):
    assert _script("convergence_scan").main(["--size", "8", "--levels", "2", *extra]) == 0
    cayley2 = capsys.readouterr().out.split("cayley2:")[1]
    orders = [float(v) for v in re.findall(r"order\s+(-?[\d.]+)", cayley2)]
    assert len(orders) == 1 and abs(orders[0] - 2.0) < 0.1


def test_convergence_scan_diagram_residual_falls_between_levels(capsys):
    assert _script("convergence_scan").main(["--size", "8", "--levels", "2", "--driven"]) == 0
    reduction = capsys.readouterr().out.split("reduction (")[1]
    residuals = [float(v) for v in re.findall(r"residual\s+(\S+)", reduction)]
    assert len(residuals) == 2 and 0.0 < residuals[1] < residuals[0]


def test_pair_stats_medians_quartiles_and_wins():
    bench = _script("bench")
    base = [10.0, 10.4, 9.8, 10.2, 10.1, 9.9, 10.3, 10.0, 10.2, 10.1]
    change = [9.0, 9.1, 9.7, 9.2, 9.0, 8.9, 10.3, 9.1, 9.2, 9.0]
    st = bench.pair_stats(base, change)
    assert (st["pairs"], st["wins"], st["ties"]) == (10, 9, 1)  # the tie counts for neither
    assert st["base"] == pytest.approx({"median": 10.1, "q1": 10.0, "q3": 10.2})
    assert st["change"] == pytest.approx({"median": 9.1, "q1": 9.0, "q3": 9.2})
    assert st["gap"] == pytest.approx(1.0) and st["base_iqr"] == pytest.approx(0.2)
    assert st["holds"]


def test_pair_stats_needs_nine_tenths_of_wins_and_a_gap_past_the_spread():
    bench = _script("bench")
    base = [10.0, 10.4, 9.8, 10.2, 10.1, 9.9, 10.3, 10.0, 10.2, 10.1]
    eight = [9.0, 9.1, 9.7, 9.2, 9.0, 8.9, 10.4, 9.1, 10.3, 9.0]
    st = bench.pair_stats(base, eight)
    assert st["wins"] == 8 and not st["holds"]
    narrow = [b - 0.1 for b in base]  # wins every pair, by less than the base IQR
    st = bench.pair_stats(base, narrow)
    assert st["wins"] == 10 and st["gap"] < st["base_iqr"] and not st["holds"]
    with pytest.raises(ValueError):
        bench.pair_stats(base, narrow[:-1])


def _fake_runs(monkeypatch, bench, base_root, metrics):
    """Replace perfbench runs by ``metrics(side, k)``, the k-th run of a side
    ("base" from ``base_root``, "change" from this checkout); returns the
    list of roots in call order."""
    calls = []

    def fake_run(workload, seed, seconds, trace, root):
        side = "base" if root == base_root else "change"
        k = sum(r == root for r in calls)
        calls.append(root)
        values = metrics(side, k)
        return ({"correct": True, "metrics": {n: {"value": v} for n, v in values.items()}},
                {"env": {}})

    monkeypatch.setattr(bench, "run_once", fake_run)
    return calls


def _metrics(run_s, cpu_s=None, peak_rss_mb=40.0, setup_s=0.3, pass_rate=1.0):
    return {"run_s": run_s, "cpu_s": run_s if cpu_s is None else cpu_s,
            "peak_rss_mb": peak_rss_mb, "setup_s": setup_s, "pass_rate": pass_rate}


def test_pairs_alternate_which_side_runs_first(monkeypatch, capsys, tmp_path):
    bench = _script("bench")
    calls = _fake_runs(monkeypatch, bench, tmp_path,
                       lambda side, k: _metrics(2.0 if side == "base" else 1.0))
    assert bench.run_pairs(4, tmp_path, "golden_cli", 1, 15) == 0
    assert calls == [tmp_path, bench.REPO, bench.REPO, tmp_path] * 2
    out = capsys.readouterr().out
    assert "change wins 4 of 4 (ties 0)" in out
    assert '"holds": true' in out.splitlines()[-1]


def test_pairs_give_every_end_to_end_metric_a_verdict(monkeypatch, capsys, tmp_path):
    """run_s 3% slower and steady, cpu_s 40% slower (a regression past its
    0.25 bound), setup_s 5% slower with a 50% spread (unresolved),
    peak_rss_mb 7% lower and steady (a gain), pass_rate equal; then every
    workload when none is named."""
    bench = _script("bench")
    wobble = [0.2, 0.45, 0.3, 0.15, 0.4, 0.25]

    def metrics(side, k):
        slower = side == "change"
        return _metrics(run_s=10.0 * (1.03 if slower else 1.0) + 0.01 * k,
                        cpu_s=10.0 * (1.4 if slower else 1.0),
                        peak_rss_mb=(41.5 if slower else 44.5) + 0.01 * k,
                        setup_s=wobble[k] * (1.05 if slower else 1.0))

    _fake_runs(monkeypatch, bench, tmp_path, metrics)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench.run_pairs(6, tmp_path, "large_basis", 1, 15) == 1
    head, *out = capsys.readouterr().out.splitlines()
    assert head == 'env {"PYTHONDONTWRITEBYTECODE": "1"}'
    assert out[0] == "workload large_basis"
    assert out[1] == ("pair 1 (base first): run_s 10/10.3, cpu_s 10/14, peak_rss_mb 44.5/41.5, "
                      "setup_s 0.2/0.21, pass_rate 1/1")
    verdicts = {line.split(" (")[0]: line.rsplit(": ", 1)[1] for line in out[7:12]}
    assert verdicts == {"run_s": "within bound", "cpu_s": "regression",
                        "peak_rss_mb": "within bound", "setup_s": "unresolved",
                        "pass_rate": "within bound"}
    gains = {line.split(":")[0]: line.rsplit(": ", 1)[1] for line in out[12:17]}
    assert gains == {"run_s": "gain not shown", "cpu_s": "gain not shown",
                     "peak_rss_mb": "gain holds", "setup_s": "gain not shown",
                     "pass_rate": "gain not shown"}
    assert out[14] == ("peak_rss_mb: change wins 6 of 6 (ties 0); median gap 3 MB against "
                       "base IQR 0.025 MB: gain holds")
    result = json.loads(out[-1])
    assert result["runs"]["cpu_s"] == {"base": [10.0] * 6, "change": [14.0] * 6}
    assert result["verdicts"]["cpu_s"]["worse"] == pytest.approx(0.4)
    assert result["verdicts"]["setup_s"]["base"]["median"] == pytest.approx(0.275)
    assert set(result["gain"]) == {"run_s", "cpu_s", "peak_rss_mb", "setup_s", "pass_rate"}
    assert result["gain"]["peak_rss_mb"]["holds"] and not result["gain"]["run_s"]["holds"]
    assert result["gain"]["pass_rate"]["ties"] == 6

    # no workload named: every workload gets its pairs and verdicts in turn,
    # and a regression in the last one alone makes the exit code 1
    calls = []

    def fake_run(workload, seed, seconds, trace, root):
        calls.append(workload)
        slower = root != tmp_path and workload == "coefficient_dump"
        return ({"correct": True, "metrics": {n: {"value": v} for n, v in
                                              _metrics(1.5 if slower else 1.0).items()}},
                {"env": {}})

    monkeypatch.setattr(bench, "run_once", fake_run)
    assert bench.run_pairs(2, tmp_path, None, 1, 15) == 1
    assert calls == [w for w in bench.WORKLOADS for _ in range(4)]
    results = [json.loads(line) for line in capsys.readouterr().out.splitlines()
               if line.startswith("{")]
    assert [r["workload"] for r in results] == list(bench.WORKLOADS)
    assert [r["verdicts"]["run_s"]["verdict"] for r in results] == [
        "within bound", "within bound", "within bound", "regression"]
    assert bench.main(["--pairs", "2", "--against", str(tmp_path)]) == 1


def test_metric_verdict_follows_the_direction_and_the_spread():
    bench = _script("bench")
    lower = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}
    higher = {"name": "pass_rate", "better": "higher", "bound": 0.05}
    base = [40.0, 40.2, 39.8, 40.1]
    assert bench.metric_verdict(lower, base, [b * 1.05 for b in base])["verdict"] == "within bound"
    assert bench.metric_verdict(lower, base, [b * 1.2 for b in base])["verdict"] == "regression"
    assert bench.metric_verdict(lower, base, [b * 0.5 for b in base])["verdict"] == "within bound"
    wide = [30.0, 50.0, 35.0, 45.0]  # quartile spread 25% of the median
    assert bench.metric_verdict(lower, wide, wide)["verdict"] == "unresolved"
    # every change run better than every base run resolves a wide spread
    assert bench.metric_verdict(lower, wide, [w - 21.0 for w in wide])["verdict"] == "within bound"
    assert bench.metric_verdict(higher, [1.0] * 4, [0.9] * 4)["verdict"] == "regression"
    assert bench.metric_verdict(higher, [0.9] * 4, [1.0] * 4)["worse"] == pytest.approx(-1 / 9)


def test_pair_stats_read_the_metric_direction():
    """A metric where higher is better wins by reading higher, and its gap
    is positive when the change's median is the higher one."""
    bench = _script("bench")
    base = [0.90, 0.91, 0.89, 0.90]
    st = bench.pair_stats(base, [b + 0.1 for b in base], "higher")
    assert st["wins"] == 4 and st["gap"] == pytest.approx(0.1) and st["holds"]
    st = bench.pair_stats(base, [b + 0.1 for b in base], "lower")
    assert st["wins"] == 0 and st["gap"] == pytest.approx(-0.1) and not st["holds"]
