"""Mutated golden configs: every one-leaf mutation exits with a documented
code, and nothing escapes as an exception or a warning."""

import copy
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import geoschro.cli as cli

REPO = Path(__file__).resolve().parent.parent
STEPS = 30  # steps per floor of each shrunk config
MAX_STEPS = 2 * 10 ** 4  # mutated grids above this are skipped, not run
MAX_SIZE = 64  # and so are bases above this

NUMBERS = (1e308, -1e308, 5e-324, -5e-324, 0, -1, 2 ** 63, 1e300)
REPLACEMENTS = ("", "x", "absent.json", [], [1], {}, True, False, None)
DELETE = "<deleted>"


def _shrunk(path: Path) -> dict:
    """The golden config with t1 moved so that each floor takes STEPS steps."""
    cfg = json.loads(path.read_text(encoding="utf-8"))
    cfg["time"]["t1"] = cfg["time"]["t0"] + STEPS * cfg["integrator"]["dt"]
    if "reduction" in cfg:
        cfg["reduction"]["dt_reduced"] = cfg["integrator"]["dt"]
    return cfg


CONFIGS = {path.stem: _shrunk(path) for path in sorted((REPO / "configs").glob("*.json"))}


def _paths(node, prefix=()):
    """Every path below the root: object keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(CONFIGS)))
    cfg = CONFIGS[name]
    path = draw(st.sampled_from(list(_paths(cfg))))
    choices = [st.sampled_from(REPLACEMENTS)]
    if _is_number(_at(cfg, path)):
        choices.append(st.sampled_from(NUMBERS))
    if isinstance(path[-1], str):
        choices.append(st.just(DELETE))
    return name, path, draw(st.one_of(choices))


def _number_at(cfg, *path):
    """The number at path, or None when the path is missing or not a number."""
    try:
        value = _at(cfg, path)
    except (KeyError, IndexError, TypeError):
        return None
    return value if _is_number(value) else None


def _within_budget(cfg) -> bool:
    """False when the mutated config would step more than MAX_STEPS on a
    floor or build a basis above MAX_SIZE; anything it cannot read is left to
    the parser."""
    size = _number_at(cfg, "basis", "size")
    if size is not None and size > MAX_SIZE:
        return False
    t0, t1 = _number_at(cfg, "time", "t0"), _number_at(cfg, "time", "t1")
    if t0 is None or t1 is None:
        return True
    for dt in (_number_at(cfg, "integrator", "dt"), _number_at(cfg, "reduction", "dt_reduced")):
        if dt is not None and dt > 0 and (t1 - t0) / dt > MAX_STEPS:
            return False
    return True


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mutation=mutations())
@example(mutation=("driven_reduction", ("reduction", "mu"), -1e308))
def test_mutated_golden_config_exits_cleanly(mutation):
    name, path, value = mutation
    cfg = copy.deepcopy(CONFIGS[name])
    parent = _at(cfg, path[:-1])
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    assume(_within_budget(cfg))
    command = "reduce" if "reduction" in CONFIGS[name] else "simulate"
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(cfg), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, "--config", str(config_path), "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2, 3)
