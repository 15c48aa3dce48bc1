"""A helper process on a second CPU that runs jobs for its caller.

A :func:`block` gives its body one helper. Where ``os.fork`` and
``os.sched_getaffinity`` exist and the process may run on two or more
CPUs, the block's helper is forked at its first job, serves every later
job of the block and is reaped when the block ends, however it ends; a
block that submits no job forks nothing. A block inside another reuses
the outer one's helper. ``cli.main`` runs each command in one block, so a
command forks at most one helper, and ``dgp.train`` runs in one, so a
library caller gets a helper per training.

A job is a picklable callable and its arguments. :meth:`Helper.submit`
pickles the whole job before any of it is written and hands it to the
helper through a pipe; the helper runs it and sends back its result, or
the exception it raised, which the caller re-raises. The job runs in the
helper by the same code on the same inputs as in the caller, and pickle
carries floats exactly, so a job's result has the bytes it would have in
the caller. Two callers use it: ``gp.minimize`` runs two of a fit's four
simplex restarts there, and ``validate-fidelity`` solves its finest mesh
there while it solves the coarser ones itself.

Being forked, the helper runs with the module state, numpy error state
and warning filters the caller had at its first job, not at later ones.
It writes only to its own pipe and leaves only through ``os._exit``, so
nothing the caller had buffered is written twice. A job that does not
pickle, a helper that cannot be forked, dies or sends a reply that does
not unpickle: each runs the job in the caller, and a helper once gone
stays gone for the rest of its block. On one CPU, and in a process with
another thread (a fork could leave that thread's lock held in the
child), every job runs in the caller.
"""

from __future__ import annotations

import gc
import os
import pickle
import threading
from contextlib import contextmanager
from contextvars import ContextVar

# The helper of the innermost enclosing block.
_CURRENT: ContextVar = ContextVar("helper", default=None)


@contextmanager
def block():
    """Yield the enclosing block's helper, or a new one reaped when this block ends.

    Yields None where ``os.fork`` or ``os.sched_getaffinity`` is missing
    or the process may run on fewer than two CPUs. A new helper is not
    forked until its first job.
    """
    outer = _CURRENT.get()
    if outer is not None:
        yield outer
        return
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        yield None
        return
    helper = Helper()
    token = _CURRENT.set(helper)
    try:
        yield helper
    finally:
        _CURRENT.reset(token)
        helper.close()


def current():
    """The helper of the enclosing :func:`block`, or None."""
    return _CURRENT.get()


def start(func, *args):
    """Start ``func(*args)`` in the enclosing block's helper; a callable that returns its result.

    Where no helper takes the job, the callable runs ``func(*args)`` in
    this process when it is called.
    """
    helper = _CURRENT.get()
    reply = helper.submit(func, *args) if helper is not None else None
    return reply or (lambda: func(*args))


class Helper:
    """The caller's end of a helper: a child pid and the two pipes to it, once forked."""

    def __init__(self):
        self.pid = None
        self._gone = False

    def submit(self, func, *args):
        """Hand the helper ``func(*args)``; a callable that returns its result, or None.

        None if the job does not pickle or the helper is gone or cannot be
        forked: the caller then runs the job itself. The callable returns
        the job's result or raises its exception, and it runs ``func(*args)``
        here if the helper dies before its reply arrives whole or the reply
        does not unpickle. One job at a time: call it before the next
        submit.
        """
        if self._gone:
            return None
        try:
            job = pickle.dumps((func, args), pickle.HIGHEST_PROTOCOL)
        except Exception:  # a job that does not pickle runs in the caller
            return None
        if self.pid is None and not self._fork():
            return None
        try:
            self._jobs.write(job)
            self._jobs.flush()
        except BrokenPipeError:  # the helper died
            self.close()
            return None
        return lambda: self._reply(func, args)

    def _reply(self, func, args):
        try:
            ok, value = pickle.load(self._results)
        except Exception:  # the helper died, mid-reply or before, or sent what does not unpickle
            self.close()
            return func(*args)
        if not ok:
            raise value
        return value

    def _fork(self) -> bool:
        """Fork the helper, serving :func:`_serve`; False, and gone, if it cannot be forked."""
        if threading.active_count() != 1:
            self._gone = True
            return False
        fds = []
        try:
            fds += os.pipe()  # jobs: read end, write end
            fds += os.pipe()  # results: read end, write end
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            self._gone = True
            return False
        job_read, job_write, result_read, result_write = fds
        if pid == 0:
            try:
                # leave the caller's objects to the caller: a collection here
                # could finalize, and so flush, a file object the caller holds
                gc.freeze()
                os.close(job_write)
                os.close(result_read)
                _serve(os.fdopen(job_read, "rb"), os.fdopen(result_write, "wb"))
            finally:
                os._exit(0)
        os.close(job_read)
        os.close(result_write)
        self.pid = pid
        self._jobs, self._results = os.fdopen(job_write, "wb"), os.fdopen(result_read, "rb")
        return True

    def close(self) -> None:
        """Close the pipes and reap the helper, which then leaves; later jobs run in the caller.

        An idle helper reads the end of its job pipe and leaves at once. A
        busy one, when the caller raised mid-job, leaves when it has ended
        its job and found the result pipe closed.
        """
        self._gone = True
        if self.pid is None:
            return
        for stream in (self._jobs, self._results):
            try:
                stream.close()
            except BrokenPipeError:  # flushing what the dead helper's pipe refused
                pass
        os.waitpid(self.pid, 0)
        self.pid = None


def _serve(jobs, results) -> None:
    """The helper's loop: run each job and send back its reply until the job pipe closes.

    A reply is pickled whole before any of it is written, so one that cannot
    be pickled ends the helper with nothing written, and the caller runs
    that job itself.
    """
    while True:
        try:
            func, args = pickle.load(jobs)
        except EOFError:
            return
        try:
            reply = (True, func(*args))
        except Exception as exc:  # the caller re-raises it
            reply = (False, exc)
        results.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        results.flush()
