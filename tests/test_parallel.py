from __future__ import annotations

import os
import threading
import time

import pytest

from unimap.parallel import fork_shares, share_count


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_share_count_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert [share_count(c) for c in (1, 2, 3, 143)] == [1, 2, 3, 3]
    monkeypatch.delattr(os, "fork")
    assert share_count(143) == 1


def test_a_process_with_other_threads_gets_one_share(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert share_count(143) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert share_count(143) == 2


@pytest.mark.parametrize("shares", (1, 2, 3))
def test_each_share_runs_once_in_its_own_process(shares):
    out = fork_shares(lambda s: (s, os.getpid(), {(s, ()): [s]}), shares)
    assert [s for s, _, _ in out] == list(range(shares))
    assert out[0][1] == os.getpid()
    assert len({pid for _, pid, _ in out}) == shares
    assert [d for _, _, d in out] == [{(s, ()): [s]} for s in range(shares)]
    assert _no_child_left()


def test_a_failing_child_raises_here():
    def work(s):
        if s == 2:
            raise ValueError("deliberate")
        return s

    with pytest.raises(RuntimeError, match="share 2 of 3 failed: ValueError: deliberate"):
        fork_shares(work, 3)
    assert _no_child_left()


def test_a_child_that_dies_without_a_reply_raises_here():
    def work(s):
        if s:
            os._exit(3)
        return s

    with pytest.raises(RuntimeError, match="no reply"):
        fork_shares(work, 2)
    assert _no_child_left()


def test_a_failure_here_kills_the_children_at_once():
    def work(s):
        if s:
            time.sleep(60)
            return s
        raise ValueError("deliberate")

    t0 = time.monotonic()
    with pytest.raises(ValueError, match="deliberate"):
        fork_shares(work, 3)
    assert time.monotonic() - t0 < 10
    assert _no_child_left()
