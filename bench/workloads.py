"""The three benchmark workloads: the package's own study drivers.

Each workload is one call of a public driver in ``cauchyfem.experiments``
with a fixed configuration; the benchmark seed is the jitter seed.  The
two unjittered workloads therefore run the same inputs for every seed.
"""

LEVELS = (8, 16, 32, 64)
SWEEP_N = 64
#: self-check sizes: same drivers and code paths, milliseconds per solve
TINY_LEVELS = (2, 4)
TINY_SWEEP_N = 4

#: name -> (driver, RunConfig keywords, keywords of the driver call).  The
#: CSV path and the seed are added per run.
WORKLOADS = {
    # acceptance P1 study (scripts/convergence_study.py): every triangle has
    # its own shape, so nothing is shared between elements
    "p1_study": ("run_convergence",
                 {"degree": 1, "levels": LEVELS, "jitter": 0.2}, {}),
    # acceptance P2 study on the lattice: two triangle shapes, the largest
    # saddle matrix (1.17M nonzeros at n=64)
    "p2_study": ("run_convergence", {"degree": 2, "levels": LEVELS}, {}),
    # C8 penalty sweep (scripts/penalty_sweep.py): one mesh, nine gammas
    "sweep": ("run_sweep", {"degree": 1}, {"n": SWEEP_N}),
}


def is_seeded(name):
    """True when the seed changes the workload's inputs (jittered meshes)."""
    return WORKLOADS[name][1].get("jitter", 0.0) > 0.0


def _spec(name, tiny):
    driver, config, kwargs = WORKLOADS[name]
    if tiny:
        if driver == "run_sweep":
            kwargs = dict(kwargs, n=TINY_SWEEP_N)
        else:
            config = dict(config, levels=TINY_LEVELS)
    return driver, config, kwargs


def num_solves(name, experiments, tiny=False):
    """Solves one driver call attempts: one per level or one per gamma."""
    driver, config, _ = _spec(name, tiny)
    if driver == "run_sweep":
        return len(experiments.DEFAULT_SWEEP_GAMMAS)
    return len(config["levels"])


def call_driver(name, seed, csv_path, experiments, tiny=False):
    """Run workload `name` once, writing its CSV to `csv_path`.

    The driver is looked up on the module at call time, so a traced run
    calls the wrapped function.
    """
    driver, config, kwargs = _spec(name, tiny)
    run_config = experiments.RunConfig(seed=seed, output_path=csv_path,
                                       **config)
    return getattr(experiments, driver)(run_config, **kwargs)
