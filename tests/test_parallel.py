from __future__ import annotations

import os
import threading
import time

import pytest

from unimap.errors import DecompositionError, EnumerationCapError
from unimap.parallel import fork_map


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _pin(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _pids(units: int) -> int:
    """How many processes `fork_map` runs `units` units in."""
    return len(set(fork_map(lambda u: os.getpid(), range(units))))


def _calls(path) -> list[tuple[int, int]]:
    """The (unit, pid) lines that `_logging` appended to `path`."""
    return [tuple(map(int, line.split())) for line in path.read_text().splitlines()]


def _logging(path, fn):
    """`fn`, logging each call's unit and pid to `path` first; appends of
    one short line each do not interleave across processes."""

    def logged(u):
        with open(path, "a") as f:
            f.write(f"{u} {os.getpid()}\n")
        return fn(u)

    return logged


def test_share_count_follows_the_affinity_mask(monkeypatch):
    _pin(monkeypatch, 3)
    assert [_pids(c) for c in (1, 2, 3, 143)] == [1, 2, 3, 3]
    monkeypatch.delattr(os, "fork")
    assert _pids(143) == 1
    assert _no_child_left()


def test_a_process_with_other_threads_gets_one_share(monkeypatch):
    _pin(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _pids(143) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert _pids(143) == 2


@pytest.mark.parametrize("shares", (1, 2, 3))
def test_each_share_runs_once_in_its_own_process(monkeypatch, shares):
    _pin(monkeypatch, shares)
    out = fork_map(lambda u: (u, os.getpid(), {(u, ()): [u]}), range(shares))
    assert [u for u, _, _ in out] == list(range(shares))
    assert out[0][1] == os.getpid()
    assert len({pid for _, pid, _ in out}) == shares
    assert [d for _, _, d in out] == [{(u, ()): [u]} for u in range(shares)]
    assert _no_child_left()


@pytest.mark.parametrize("cpus", (1, 2, 3))
def test_results_come_back_in_unit_order(monkeypatch, cpus):
    _pin(monkeypatch, cpus)
    units = [(n, t) for n in (30, 40) for t in range(5)]
    assert fork_map(lambda u: [u, u[0] * u[1]], units) == [[u, u[0] * u[1]] for u in units]
    assert fork_map(str, []) == []
    assert _no_child_left()


@pytest.mark.parametrize("units", (1, 2, 7))
@pytest.mark.parametrize("cpus", (1, 2, 3))
def test_each_unit_runs_exactly_once(monkeypatch, tmp_path, cpus, units):
    _pin(monkeypatch, cpus)
    log = tmp_path / "calls"
    assert fork_map(_logging(log, lambda u: u * u), range(units)) == [u * u for u in range(units)]
    calls = _calls(log)
    assert sorted(u for u, _ in calls) == list(range(units))
    # unit i runs in share i mod k, share 0 in this process
    shares = min(cpus, units)
    pid_of_share = {u % shares: pid for u, pid in calls}
    assert all(pid_of_share[u % shares] == pid for u, pid in calls)
    assert len(set(pid_of_share.values())) == shares
    assert pid_of_share[0] == os.getpid()
    assert _no_child_left()


@pytest.mark.parametrize("cpus", (1, 2, 3))
def test_the_least_indexed_package_error_wins(monkeypatch, tmp_path, cpus):
    # units 3 and 4 fail: under two shares unit 3 fails in the child and
    # unit 4 here, under three the other way round
    failing = {3: EnumerationCapError("unit 3"), 4: DecompositionError("unit 4")}

    def fn(u):
        if u in failing:
            raise failing[u]
        return u

    _pin(monkeypatch, cpus)
    log = tmp_path / "calls"
    with pytest.raises(EnumerationCapError) as info:
        fork_map(_logging(log, fn), range(8))
    assert type(info.value) is EnumerationCapError and str(info.value) == "unit 3"
    # every unit up to the least failure runs, and each share stops at its
    # first failing unit; whether a unit past unit 3 starts in another
    # share depends on when unit 3 fails
    ran = sorted(u for u, _ in _calls(log))
    assert ran[:4] == [0, 1, 2, 3]
    stopped = {u for u in range(8) if any(f < u and f % cpus == u % cpus for f in failing)}
    assert not stopped & set(ran)
    assert len(ran) == len(set(ran))
    assert _no_child_left()


def test_a_failing_child_raises_here(monkeypatch):
    # an error from outside the package is no result: it names its share
    def work(u):
        if u == 2:
            raise ValueError("deliberate")
        return u

    _pin(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="share 2 of 3 failed: ValueError: deliberate"):
        fork_map(work, range(3))
    assert _no_child_left()


def test_a_child_that_dies_without_a_reply_raises_here(monkeypatch):
    def work(u):
        if u:
            os._exit(3)
        return u

    _pin(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="no reply"):
        fork_map(work, range(2))
    assert _no_child_left()


def test_a_failure_here_kills_the_children_at_once(monkeypatch):
    def work(u):
        if u:
            time.sleep(60)
            return u
        raise ValueError("deliberate")

    _pin(monkeypatch, 3)
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="deliberate"):
        fork_map(work, range(3))
    assert time.monotonic() - t0 < 10
    assert _no_child_left()


def test_a_child_failing_below_share_0s_failure_wins(monkeypatch):
    # share 0 fails at unit 2 first; the child, still running unit 1, is
    # not past that failure, so it is waited for and its failure wins
    def fn(u):
        if u == 1:
            time.sleep(0.3)
            raise DecompositionError("unit 1")
        if u == 2:
            raise EnumerationCapError("unit 2")
        return u

    _pin(monkeypatch, 2)
    with pytest.raises(DecompositionError, match="unit 1"):
        fork_map(fn, range(4))
    assert _no_child_left()


def test_a_share_stops_before_a_unit_past_a_failure(monkeypatch, tmp_path):
    # unit 2 fails here while the child is still in unit 1, which is
    # before the failure and runs out; the child then starts no more units
    def fn(u):
        if u == 1:
            time.sleep(0.3)
        if u == 2:
            raise EnumerationCapError("unit 2")
        return u

    _pin(monkeypatch, 2)
    log = tmp_path / "calls"
    with pytest.raises(EnumerationCapError, match="unit 2"):
        fork_map(_logging(log, fn), range(8))
    assert sorted(u for u, _ in _calls(log)) == [0, 1, 2]
    assert _no_child_left()


@pytest.mark.parametrize("cpus,fails,slow", [(2, 0, 1), (3, 1, 2)], ids=["here", "in-a-child"])
def test_a_unit_past_a_failure_is_not_waited_for(monkeypatch, cpus, fails, slow):
    # unit `fails` fails soon, in this process or in a child, while unit
    # `slow`, past it in another child, would run for 30 s: it is killed
    def fn(u):
        if u == fails:
            time.sleep(0.2)
            raise EnumerationCapError(f"unit {u}")
        if u == slow:
            time.sleep(30)
        return u

    _pin(monkeypatch, cpus)
    t0 = time.monotonic()
    with pytest.raises(EnumerationCapError, match=f"unit {fails}"):
        fork_map(fn, range(2 * cpus))
    assert time.monotonic() - t0 < 5
    assert _no_child_left()
