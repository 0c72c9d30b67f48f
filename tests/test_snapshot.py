"""Every command on every preset reproduces its committed snapshot (tests/snapshot.json).

Integers, booleans and strings must match exactly; floats within the
relative tolerance the file states.  A failure lists every key that differs.
"""

from snapshot import collect, differences, load


def test_every_command_on_every_preset_matches_the_snapshot():
    expected, rel_tol = load()
    assert rel_tol == 1e-12
    diff = differences(expected, collect(), rel_tol)
    assert not diff, f"{len(diff)} keys differ from tests/snapshot.json:\n" + "\n".join(diff)


def test_the_comparison_names_the_key_that_moved():
    expected = {"a/0": 1.0, "a/1": 0.25, "b": 3, "c": "x", "d": float("nan")}
    assert differences(expected, dict(expected), 1e-12) == []
    assert differences(expected, {**expected, "a/1": 0.25 * (1 + 1e-13)}, 1e-12) == []
    assert differences(expected, {**expected, "a/1": 0.25 * (1 + 1e-10)}, 1e-12) == [
        f"a/1: expected 0.25, got {0.25 * (1 + 1e-10)!r}"
    ]
    assert differences(expected, {**expected, "b": 3.0}, 1e-12) == ["b: expected 3, got 3.0"]
    moved = {k: v for k, v in expected.items() if k != "c"} | {"e": None}
    assert differences(expected, moved, 1e-12) == ["c: missing", "e: extra, None"]
