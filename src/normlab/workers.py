"""Helper processes that run blocks of one computation beside the caller.

`run_blocks(fn, jobs)` runs fn(*jobs[0]) in this process and each other job
on a helper: a child forked from this process the first time it is needed,
which reads (fn, arguments) jobs pickled over a pipe and writes back
(True, result) or (False, the exception fn raised). Functions travel by
name, so fn must be a module-level function; a helper starts from this
process's memory, so it finds the same code under that name.

Helpers live in a `scope`: `cli.main` opens one around the command, and
`search.evaluate_all` opens one when called outside it. When the outermost
scope ends, the helpers read end-of-file, exit and are reaped. run_blocks
runs every job in this process outside a scope, inside a helper or any
other forked child, and while another run_blocks call is in flight; there
`block_count` is 1, so callers cut their work into one block. Fork is safe
only from a process that runs no other thread, as the CLI does.
"""

import os


class WorkerLostError(Exception):
    """A worker process ended without sending its results."""


def usable_cpus():
    """CPUs this process may run on; 1 where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_helpers = []       # the open scope's helpers, in the order they were started
_depth = 0          # open scopes in this process
_busy = False       # a run_blocks call is in flight
_forked = False     # this process is a helper or another child forked after import


def _in_process():
    """Outside a scope, in a forked child and during a run_blocks call, blocks run here."""
    return not _depth or _busy or _forked


def block_count(n, min_size=1):
    """Blocks to cut n items into: one per usable CPU, each of min_size items
    or more, and 1 where run_blocks would run every block in this process."""
    if _in_process():
        return 1
    return max(1, min(usable_cpus(), n // min_size))


def spans(n, parts):
    """(start, stop) of `parts` contiguous runs over range(n), lengths differing by at most one."""
    q, r = divmod(n, parts)
    bounds = [i * q + min(i, r) for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


class _Helper:
    """One forked helper: its pid and this process's ends of its two pipes."""

    __slots__ = ("pid", "jobs", "results")

    def __init__(self):
        job_read, job_write = os.pipe()
        result_read, result_write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (job_read, job_write, result_read, result_write):
                os.close(fd)
            raise
        if not pid:
            status = 1
            try:
                os.close(job_write)
                os.close(result_read)
                _serve(os.fdopen(job_read, "rb"), os.fdopen(result_write, "wb"))
                status = 0
            finally:
                # never return into the caller's stack
                os._exit(status)
        os.close(job_read)
        os.close(result_write)
        self.pid = pid
        self.jobs = os.fdopen(job_write, "wb")
        self.results = os.fdopen(result_read, "rb")

    def send(self, message):
        try:
            self.jobs.write(message)
            self.jobs.flush()
        except BrokenPipeError:
            raise self.lost() from None

    def receive(self):
        """(ok, value) of the job sent last; a helper that died yields WorkerLostError."""
        import pickle

        try:
            return pickle.load(self.results)
        except (EOFError, pickle.UnpicklingError):
            # no complete message: the helper died first
            return False, self.lost()

    def lost(self):
        """WorkerLostError for this helper, which is closed, reaped and dropped."""
        _helpers.remove(self)
        self.close()
        return WorkerLostError(f"worker process {self.pid} ended without sending its results")

    def close(self, reap=True):
        for pipe in (self.jobs, self.results):
            try:
                pipe.close()
            except OSError:
                pass
        if reap:
            os.waitpid(self.pid, 0)


def _serve(jobs, results):
    """A helper's loop: answer each job until the pipe reaches end-of-file."""
    import pickle

    while True:
        try:
            fn, args = pickle.load(jobs)
        except EOFError:
            return
        try:
            outcome = (True, fn(*args))
        except Exception as exc:
            outcome = (False, exc)
        results.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        results.flush()


def _close_all():
    while _helpers:
        _helpers.pop().close()


def _forget():
    """In a forked child: close the parent's helper pipes and never start helpers."""
    global _forked
    _forked = True
    for helper in _helpers:
        helper.close(reap=False)
    _helpers.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


class scope:
    """Context in which run_blocks may use helpers; the outermost one reaps them."""

    def __enter__(self):
        global _depth
        _depth += 1
        return self

    def __exit__(self, *exc_info):
        global _depth
        _depth -= 1
        if not _depth:
            _close_all()


def run_blocks(fn, jobs):
    """[fn(*job) for job in jobs]: the first job runs here, each other one on a helper.

    There should be at most usable_cpus() jobs: each job after the first
    takes its own helper. Of the exceptions raised by the jobs, the first in
    job order is raised here, after every job has finished; a helper that
    dies raises WorkerLostError.
    """
    global _busy
    if len(jobs) < 2 or _in_process():
        return [fn(*job) for job in jobs]
    import pickle

    _busy = True
    try:
        while len(_helpers) < len(jobs) - 1:
            _helpers.append(_Helper())
        helpers = _helpers[:len(jobs) - 1]
        for helper, job in zip(helpers, jobs[1:]):
            helper.send(pickle.dumps((fn, job), pickle.HIGHEST_PROTOCOL))
        try:
            outcomes = [(True, fn(*jobs[0]))]
        except Exception as exc:
            outcomes = [(False, exc)]
        outcomes += [helper.receive() for helper in helpers]
    except BaseException:
        _close_all()
        raise
    finally:
        _busy = False
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]
