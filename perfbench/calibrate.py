"""Fixed reference work that the benchmark times between passes.

The shared host's speed drifts by up to half within tens of seconds (other
tenants' load), and that drift moves every timing of a pass, even the
fastest of many.  So each pass is timed against this reference work, run
just before and just after it: ``wall_rel`` is the pass's wall time in units
of the reference's, which cancels the drift, and stays comparable across
commits because this code is the benchmark's own and never changes with the
program.

The reference work is the instruction mix of the program's hot path, without
the program: ``REF_ITERS`` EM iterations of the oracle in ``reference.py`` on
a fixed synthetic n = 500, p = 3 censored dataset (about 60 ms).  With ``k``
workers it runs once in each of ``k`` pool processes at the same time, as
the program's own pool does, so a tenant on either core shows in both.
"""

from __future__ import annotations

import time

import numpy as np

from reference import em_path

REF_ITERS = 400
_N = 500


def _dataset():
    rng = np.random.default_rng(20150107)
    y = rng.rayleigh(1.0, _N)
    observed = rng.random(_N) < 0.6
    return y, observed, np.ones((_N, 3))


_DATA = _dataset()


def reference_work(_=None) -> tuple[float, float]:
    """Run the reference work once; return its (wall, cpu) seconds."""
    y, observed, pl = _DATA
    c0 = time.process_time()
    t0 = time.perf_counter()
    em_path(y, observed, pl, [1.0 / 3.0] * 3, [1.0, 0.6, 1.5], tol=0.0, max_iters=REF_ITERS, rtol=0.0)
    return time.perf_counter() - t0, time.process_time() - c0


class Calibration:
    """Times the reference work in ``workers`` processes at once.

    Use as a context manager; with more than one worker it keeps a pool of
    that many processes, idle between calls.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self.pool = None

    def __enter__(self) -> "Calibration":
        if self.workers > 1:
            from multiprocessing import Pool

            self.pool = Pool(self.workers)
            self.pool.map(reference_work, range(self.workers))  # start-up and first-call costs
        else:
            reference_work()
        return self

    def __exit__(self, *exc) -> None:
        if self.pool is not None:
            self.pool.terminate()
            self.pool.join()

    def measure(self) -> tuple[float, float]:
        """(wall, cpu) seconds of one round: wall until every worker is done, cpu summed."""
        if self.pool is None:
            return reference_work()
        t0 = time.perf_counter()
        results = self.pool.map(reference_work, range(self.workers), chunksize=1)
        return time.perf_counter() - t0, sum(cpu for _, cpu in results)
