"""`fork_map(fn, units)`: `[fn(u) for u in units]`, split across processes.

It splits the census chunks, the transfer instances and the core-expander
trials of `unimap.experiments`.  The seeded jobs change no random stream,
since each unit's rng is seeded by its index.

Dealing.  The units are cut into k shares, one per CPU in this process's
affinity mask and at most one per unit, and unit i goes to share i mod k.
Share 0 runs in this process and each other share in a child made by
`os.fork`, which replies through a pipe in `marshal` and leaves by
`os._exit`.  So a result must be made of what marshal carries (ints,
strings, tuples, lists, plain dicts), and `fn` must not count on side
effects in this process.  No child outlives the call.  A process that
cannot fork gets one share, as does one that runs other threads, since a
forked child could inherit a lock that one of them holds.  `multiprocessing` is not used: importing
its pool alone adds more than 1 MiB to the resident memory of the process.

Errors.  A share stops at its first unit that raises a `UnimapError`, and
the call raises the error of the least-indexed such unit, of the same
class (from `unimap.errors`) and with the same message, as a single loop
would under any number of shares.  Any other error raises as it is in
share 0; in a child, or when a child dies without a reply, it raises
`RuntimeError` naming the share.

Stopping.  Work past a failing unit cannot change the result, so it is
not waited for.  The shares share a `_Board`, an anonymous mmap made
before the fork: per share, the unit it is running, the unit it failed
at, and its pid.  Each share writes the unit it is about to run, then
stops if that unit lies past the least failure on the board.  A share
whose unit fails puts it on the board and kills every child that is
already running a later unit; what such a child replied, if anything,
is ignored.  No unit up to the least failure is cut short, so the error
raised is the one a single loop raises.
"""

from __future__ import annotations

import marshal
import mmap
import os
import signal
import threading
from functools import partial
from typing import Any, Callable, Sequence

from . import errors
from .errors import UnimapError

__all__ = ["fork_map"]


def fork_map(fn: Callable[[Any], Any], units: Sequence) -> list:
    """`[fn(u) for u in units]`, dealt across processes as the module says."""
    shares = _share_count(len(units))
    board = _Board(shares, len(units))
    done = _fork_shares(partial(_share, fn, units, shares, board), shares, board)
    failures = [share[1] for share in done if share and share[1]]
    if failures:
        _, name, message = min(failures)
        raise getattr(errors, name)(message)
    return [done[i % shares][0][i // shares] for i in range(len(units))]


class _Board:
    """Per share s: ``running[s]``, the unit it runs or last ran (-1 before
    its first); ``failed[s]``, the unit it failed at (the unit count while
    it has not); ``pid[s]``, its pid (0 for share 0, this process).  The
    slots are int64s in an anonymous mmap, which forked children share."""

    def __init__(self, shares: int, units: int) -> None:
        slots = memoryview(mmap.mmap(-1, 3 * 8 * shares)).cast("q")
        self.running = slots[:shares]
        self.failed = slots[shares : 2 * shares]
        self.pid = slots[2 * shares :]
        for s in range(shares):
            self.running[s], self.failed[s] = -1, units

    def past_failure(self, s: int, i: int) -> bool:
        """Put share s at unit i; whether i lies past the least failure.

        A share writes its unit before it reads the failures, and `fail`
        writes the failure before it reads the units, so a share that
        starts a unit past a failure is seen by that failure and killed.
        """
        self.running[s] = i
        return i > min(self.failed)

    def fail(self, s: int, i: int) -> None:
        """Put share s's failure at unit i on the board and kill every child
        running a later unit."""
        self.failed[s] = i
        for t, pid in enumerate(self.pid):
            if pid and self.running[t] > i:
                os.kill(pid, signal.SIGKILL)


def _share(
    fn: Callable[[Any], Any], units: Sequence, shares: int, board: _Board, s: int
) -> tuple:
    """The results of units s, s + shares, ... up to the first that raises a
    package error or lies past a failure on the board; that error as (unit
    index, class name, message), or None."""
    results = []
    for i in range(s, len(units), shares):
        if board.past_failure(s, i):
            break
        try:
            results.append(fn(units[i]))
        except UnimapError as exc:
            board.fail(s, i)
            return results, (i, type(exc).__name__, str(exc))
    return results, None


def _share_count(units: int) -> int:
    """How many shares `units` units are cut into, as the module says."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), units))


def _fork_shares(work: Callable[[int], Any], shares: int, board: _Board) -> list:
    """`[work(s) for s in range(shares)]`, one share per process, with None
    for a child that ran past the least failure on the board.  A failure
    here kills the children, and every child is reaped before the call ends."""
    if shares == 1:
        return [work(0)]
    pids: list[int] = []
    pipes: list = []
    try:
        for s in range(1, shares):
            r, w = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child(work, s, w, pipes)
            finally:
                os.close(w)  # the child never gets here: it leaves by os._exit
            pids.append(pid)
            board.pid[s] = pid
        out = [work(0)]
        replies = [pipe.read() for pipe in pipes]
        least = min(board.failed)
        for s, reply in enumerate(replies, 1):
            if board.running[s] > least:  # killed, or stopped: not needed
                out.append(None)
                continue
            ok, result = marshal.loads(reply) if reply else (False, "no reply")
            if not ok:
                raise RuntimeError(f"share {s} of {shares} failed: {result}")
            out.append(result)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
    return out


def _child(work: Callable[[int], Any], s: int, w: int, pipes: list) -> None:
    """Do share `s` in a forked child, write its reply to `w` and exit."""
    code = 1
    try:
        for pipe in pipes:  # read ends this child inherited, its own included
            pipe.close()
        try:
            reply = (True, work(s))
        except Exception as exc:
            reply = (False, f"{type(exc).__name__}: {exc}")
        with os.fdopen(w, "wb") as f:
            f.write(marshal.dumps(reply))
        code = 0
    finally:
        os._exit(code)
