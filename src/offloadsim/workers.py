"""Forked worker processes for work that splits into independent shares.

``forked(n, work)`` yields the values of ``work(k)`` for k = 0 .. n - 1, one
iterable per share. Share 0 runs in the calling process as it is read; each
other share runs in a child made with ``os.fork``, which computes
``list(work(k))`` and sends the values through its own pipe with ``marshal``
(exact for every float, nan and -0.0 included). A share whose fork fails, say
for want of processes, runs in the calling process instead. Neither
``multiprocessing`` nor ``pickle`` is imported: a share is described by state
the child copies at fork.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import sys

_SIGKILL = 9  # the same number wherever os.fork exists


def worker_count(n_jobs: int) -> int:
    """The usable CPUs, at most one per job; 1 where forking is missing or
    unsafe, that is while another thread runs."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_jobs))


@contextlib.contextmanager
def forked(n: int, work):
    """Yield one iterable of values per share, in order of k: ``work(0)``
    itself, then for each k >= 1 the values its child sends, read from the
    pipe as the caller iterates (where ``os.fork`` raises OSError, the list is
    computed here instead). A child sends nothing before its share is complete,
    so the caller reads the shares in order while the children compute.

    On leaving the block every child is reaped. If the block raised, the
    children are killed first and its exception propagates. A child that fails
    prints its traceback to stderr and exits with status 1, and then leaving
    the block raises RuntimeError naming it: a share cut short by its child's
    failure reads as ended.
    """
    children = []  # (pid, read end of its pipe)
    shares = []  # the values of shares 1 .. n - 1
    killed = False
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException as exc:
                os.close(r)
                os.close(w)
                if not isinstance(exc, OSError):
                    raise
                shares.append(list(work(k)))  # shares are independent: the values are the child's
                continue
            if pid == 0:
                os.close(r)
                for _, pipe in children:  # an earlier child's pipe must close when the parent's end does
                    pipe.close()
                _child(w, work, k)  # never returns
            os.close(w)
            pipe = open(r, "rb")
            children.append((pid, pipe))
            shares.append(_received(pipe))
        yield [work(0), *shares]
    except BaseException:
        killed = True
        for pid, _ in children:
            os.kill(pid, _SIGKILL)
        raise
    finally:
        for _, pipe in children:
            pipe.close()
        failed = []
        for pid, _ in children:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code > 0 or (code and not killed):
                failed.append(f"{pid} (exit status {code})")
        if failed:
            raise RuntimeError(f"worker process {', '.join(failed)} failed; see its traceback on stderr")


def _received(pipe):
    """The values a child sent through ``pipe``, one ``marshal`` record each, up to its end."""
    with contextlib.suppress(EOFError):
        while True:
            yield marshal.load(pipe)


def _child(fd: int, work, k: int):
    """A forked worker: send the values of share k through its pipe, then exit.

    The pipe closes only when the process ends, after any traceback is out,
    so a parent that reads end-of-file before a complete result finds the
    child's exit status already set."""
    status = 1
    try:
        out = open(fd, "wb")
        for value in list(work(k)):
            marshal.dump(value, out)
        out.flush()
        status = 0
    except BaseException:  # the worker ends here whatever went wrong, so report it
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)  # no cleanup of the parent's state copied at fork
