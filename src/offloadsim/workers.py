"""Forked worker processes for work that splits into independent shares.

``forked(n, work)`` makes n - 1 children with ``os.fork``; child k runs
``work(k, out)`` and writes its result to ``out``, the write end of its own
pipe, while the calling process does share 0 and reads the children's pipes.
Neither ``multiprocessing`` nor ``pickle`` is imported: a share is described
by state the child copies at fork, and results travel as bytes the caller
chooses (``marshal`` keeps every float exactly).
"""

from __future__ import annotations

import contextlib
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
    """Run ``work(k, out)`` for k = 1 .. n - 1, each in a forked child, and
    yield the read ends of their pipes (binary files), in order of k.

    The caller reads each pipe while its child may still write: a pipe holds
    only about 64 KB, and a child blocks once it is full. On leaving the block
    every child is reaped. If the block raised, the children are killed first
    and its exception propagates. A child that fails prints its traceback to
    stderr and exits with status 1, and then leaving the block raises
    RuntimeError naming it.
    """
    children = []  # (pid, read end of its pipe)
    killed = False
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                for _, pipe in children:  # an earlier child's pipe must close when the parent's end does
                    pipe.close()
                _child(w, work, k)  # never returns
            os.close(w)
            children.append((pid, open(r, "rb")))
        yield [pipe for _, pipe in children]
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


def _child(fd: int, work, k: int):
    """A forked worker: run share k with its pipe as ``out``, then exit.

    The pipe closes only when the process ends, after any traceback is out,
    so a parent that reads end-of-file before a complete result finds the
    child's exit status already set."""
    status = 1
    try:
        out = open(fd, "wb")
        work(k, out)
        out.flush()
        status = 0
    except BaseException:  # the worker ends here whatever went wrong, so report it
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)  # no cleanup of the parent's state copied at fork
