"""The resource-guard table in tests/guards.py.

Its checker accepts a result that meets a row and rejects every way of
missing it: the exit code, the output, the time bound and the RSS bound.
Its runner is run for real on the cheapest row and on a child it must kill.
"""

import pytest

import guards

ROWS = {row["name"]: row for row in guards.GUARDS}
WITH_OUTPUT = [n for n, row in ROWS.items() if "out" in row or "err" in row]
WITH_RSS = [n for n, row in ROWS.items() if "mb" in row]


def meeting(row):
    """A result that meets ``row``: each pattern with ``*`` read as no text,
    half the time bound and half the RSS bound (20 MB where it has none)."""
    return dict(code=row["code"], out=row.get("out", "").replace("*", ""),
                err=row.get("err", "").replace("*", ""), seconds=row["s"] / 2,
                mb=row.get("mb", 40) / 2)


def problems(row, **changes):
    """The problems of a result that meets ``row`` except for ``changes``."""
    return list(guards.check(row, {**meeting(row), **changes}))


def mutated(row, **changes):
    """The problems of a result that meets ``row``, checked against ``row``
    with its expectations or bounds changed."""
    return list(guards.check({**row, **changes}, meeting(row)))


def test_the_bounds_are_those_of_the_former_workflow_steps():
    assert [row["s"] for row in guards.GUARDS] == [30, 5, 10, 5, 5, 5, 5, 5,
                                                   10, 20, 20, 10]
    assert [row.get("mb") for row in guards.GUARDS] == [None] * 8 + [100, 40, 40, 80]
    assert len(ROWS) == 12


@pytest.mark.parametrize("name", ROWS)
def test_a_result_that_meets_the_row_passes(name):
    assert problems(ROWS[name]) == []


@pytest.mark.parametrize("name", ROWS)
def test_a_wrong_exit_code_fails(name):
    row = ROWS[name]
    assert problems(row, code=row["code"] + 1) == [
        f"exit code {row['code'] + 1}, not {row['code']}"]
    assert mutated(row, code=row["code"] + 1) != []


@pytest.mark.parametrize("name", WITH_OUTPUT)
def test_a_mutated_output_fails(name):
    row, ok = ROWS[name], meeting(ROWS[name])
    for key in ("out", "err"):
        if key not in row:
            continue
        text = ok[key]
        for bad in ("#" + text[1:], text[:-1] + "#"):
            assert len(problems(row, **{key: bad})) == 1, bad[:40]
        # text past the end is accepted only where the pattern ends in ``*``
        assert (problems(row, **{key: text + "#"}) == []) == row[key].endswith("*")
        assert mutated(row, **{key: "#" + row[key]}) != []


@pytest.mark.parametrize("name", ROWS)
def test_a_time_at_or_over_the_bound_fails(name):
    row = ROWS[name]
    for seconds in (row["s"], row["s"] + 0.01, 10 * row["s"]):
        assert problems(row, seconds=seconds) == [
            f"{seconds:.2f} s is not under {row['s']} s"]
    assert mutated(row, s=row["s"] / 2 * 0.9) != []  # below the measured time


@pytest.mark.parametrize("name", ROWS)
def test_a_child_killed_at_the_bound_fails(name):
    row = ROWS[name]
    found = problems(row, code=-9, out="", err="", seconds=row["s"])
    assert f"exit code -9, not {row['code']}" in found
    assert f"{row['s']:.2f} s is not under {row['s']} s" in found


@pytest.mark.parametrize("name", WITH_RSS)
def test_an_rss_at_or_over_the_bound_fails(name):
    row = ROWS[name]
    for mb in (row["mb"], row["mb"] + 0.1, 10 * row["mb"]):
        assert problems(row, mb=mb) == [f"{mb:.1f} MB is not under {row['mb']} MB"]
    assert mutated(row, mb=row["mb"] / 2 * 0.9) != []  # below the measured RSS


def test_a_row_without_an_rss_bound_accepts_any_rss():
    row = ROWS["eta_4^10000"]
    assert "mb" not in row and problems(row, mb=10 ** 6) == []


def test_the_cheapest_row_runs_and_passes():
    row = ROWS["eta_4^100000000"]
    res = guards.run(row)
    assert list(guards.check(row, res)) == []
    assert res["code"] == 2 and res["out"] == "" and 1 < res["mb"] < 1000


def test_the_runner_kills_a_child_at_its_bound():
    row = dict(name="sleeper", program="import time\ntime.sleep(30)", s=0.5, code=0)
    res = guards.run(row)
    assert res["code"] == -9 and 0.5 <= res["seconds"] < 10
    assert list(guards.check(row, res)) == [
        "exit code -9, not 0", f"{res['seconds']:.2f} s is not under 0.5 s"]
