"""Exact work split across forked processes.

Three jobs are split: the exhaustive census (`experiments.profile_census`),
the seeded substitution-transfer check
(`experiments.verify_substitution_transfer`) and the trials of the
core-expander experiment (`experiments.run_core_expander_experiment`).
The seeded splits change no random stream, since each instance's or
trial's rng is seeded by its index, not drawn from a stream that earlier
ones advance.

`share_count` says how many shares a job is cut into: one per CPU that
this process may use.  `fork_shares(work, k)` returns `[work(0), ...,
work(k - 1)]`: share 0 runs in this process, and each other share in a
child made by `os.fork`, which sends its result back through a pipe as
`marshal` bytes and leaves by `os._exit`.  So a result must be made of what
marshal carries (ints, strings, tuples, lists, plain dicts), and `work`
must not count on side effects in this process.  No child outlives the
call, whether it returns or raises.  A process that runs other threads
gets one share, since a forked child could inherit a lock that one of
them holds.  `multiprocessing` is not used: importing its pool alone adds
more than 1 MiB to the resident memory of the process.
"""

from __future__ import annotations

import marshal
import os
import signal
import threading
from typing import Any, Callable

__all__ = ["fork_shares", "share_count"]


def share_count(chunks: int) -> int:
    """How many shares to cut a job of `chunks` chunks into: one per CPU in
    this process's affinity mask, at most one per chunk, and 1 where the
    platform cannot fork or other threads run."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), chunks)


def fork_shares(work: Callable[[int], Any], shares: int) -> list:
    """`[work(s) for s in range(shares)]`, one share per process.

    A share that fails makes the call raise `RuntimeError` with the child's
    error; a failure here kills the children.  Either way every child is
    reaped before the call ends.
    """
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
        out = [work(0)]
        for s, pipe in enumerate(pipes, 1):
            reply = pipe.read()
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
