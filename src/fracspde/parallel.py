"""Order-preserving parallel map for Monte Carlo sample loops.

Results are returned indexed by sample, and every sample derives its own
seed, so output is identical for any worker count; reductions over the
returned list must keep the sample order to stay bit-deterministic.
"""


def parallel_map(fn, args_list, workers: int = 1) -> list:
    """Map fn over args_list, in order; workers <= 1 runs inline."""
    if workers <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    # imported here: a one-worker run never starts a pool. A forking pool
    # starts all its processes at once, so it gets no more than the items
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(args_list))) as pool:
        return list(pool.map(fn, args_list))
