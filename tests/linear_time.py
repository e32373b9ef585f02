"""Shared check that building an n-level structure costs O(n)."""

import gc
import statistics
import time

ROUNDS = 7


def assert_linear_build(build, sizes, levels):
    """Assert that build(n), which builds an n-level structure once, costs
    at most 2.5 times as much per doubling of n.

    Every sample builds `levels` levels in all (levels // n builds of size
    n), so a burst of machine speed favours no size.  Each round times every
    size back to back, and the median over the rounds of each round's ratio
    is compared, not a best-of or a median per size: on a shared 2-core
    machine the speed switches between two levels about twice apart, and a
    switch between the samples of two sizes skews any single comparison.
    """
    samples = {n: [] for n in sizes}
    gc.disable()  # the cyclic collector's passes are not the cost under test
    try:
        for _ in range(ROUNDS):
            for n in sizes:
                builds = levels // n
                start = time.process_time()
                for _ in range(builds):
                    build(n)
                samples[n].append((time.process_time() - start) / builds)
    finally:
        gc.enable()
    for small, big in zip(sizes, sizes[1:]):
        assert big == 2 * small
        ratio = statistics.median(b / s for s, b in zip(samples[small], samples[big]))
        assert ratio <= 2.5, samples
