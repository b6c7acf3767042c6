"""Forked worker processes for work that splits into independent shares.

``forked(n, work)`` returns ``[list(work(k)) for k in range(n)]``. Share 0 runs
in the calling process; each other share runs in a child made with
``os.fork``, which computes ``list(work(k))`` and sends it through its own pipe
as one ``marshal`` record (exact for every float, nan and -0.0 included). A
share whose fork fails, say for want of processes, runs in the calling process
instead. Neither ``multiprocessing`` nor ``pickle`` is imported: a share is
described by state the child copies at fork.
"""

from __future__ import annotations

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


def forked(n: int, work) -> list[list]:
    """``[list(work(k)) for k in range(n)]``, each share k >= 1 computed in a
    child while this process computes share 0 (where ``os.fork`` raises
    OSError, share k is computed here instead).

    Every child is reaped before the call returns or raises. If a share raises
    here, the children are killed first and its exception propagates. A child
    that fails prints its traceback to stderr, sends nothing and exits with
    status 1, and the call raises RuntimeError naming it.
    """
    children = {}  # share k -> (pid, read end of its pipe)
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
                continue  # shares are independent: computed here, the values are the child's
            if pid == 0:
                os.close(r)
                for _, pipe in children.values():  # an earlier child's pipe must close when the parent's end does
                    pipe.close()
                _child(w, work, k)  # never returns
            os.close(w)
            children[k] = (pid, open(r, "rb"))
        shares = []
        for k in range(n):
            if k in children:
                sent = children[k][1].read()
                shares.append(marshal.loads(sent) if sent else None)  # nothing sent: the child failed, reaped below
            else:
                shares.append(list(work(k)))
        return shares
    except BaseException:
        killed = True
        for pid, _ in children.values():
            os.kill(pid, _SIGKILL)
        raise
    finally:
        failed = []
        for pid, pipe in children.values():
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code > 0 or (code and not killed):
                failed.append(f"{pid} (exit status {code})")
        if failed:
            raise RuntimeError(f"worker process {', '.join(failed)} failed; see its traceback on stderr")


def _child(fd: int, work, k: int):
    """A forked worker: send share k through its pipe as one ``marshal``
    record, then exit. ``marshal.dump`` writes nothing before the record is
    complete, so a share that fails sends nothing: its traceback goes to stderr
    and the exit status is 1."""
    status = 1
    try:
        with open(fd, "wb") as out:
            marshal.dump(list(work(k)), out)
        status = 0
    except BaseException:  # the worker ends here whatever went wrong, so report it
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)  # no cleanup of the parent's state copied at fork
