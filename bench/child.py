"""One fresh benchmark process: import the package, call one driver, report.

    python3 child.py WORKLOAD SEED MODE OUT_DIR [tiny]

MODE is ``setup`` (imports only), ``run`` (driver call) or ``trace``
(driver call with the span tracer installed).  ``tiny`` shrinks the
workload to the self-check size.  The last stdout line is a JSON object
with the CLOCK_MONOTONIC time of the driver call and of its return, the
mean unit time that ``pace`` sampled before the call and during it, and
the process's peak RSS.  The parent sets PYTHONPATH to the checkout's
``src`` and pins BLAS threads.
"""

import json
import pathlib
import resource
import sys
import time

import pace


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv):
    name, seed, mode, out_dir = argv[:4]
    tiny = argv[4:] == ["tiny"]
    pacer = pace.Pacer()
    pacer.start()
    from cauchyfem import experiments

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if src not in pathlib.Path(experiments.__file__).resolve().parents:
        sys.exit(f"cauchyfem was imported from {experiments.__file__}, "
                 f"not from {src}")
    import workloads

    tracer = None
    if mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    out = pathlib.Path(out_dir)
    t_call = clock()
    setup_unit = pace.mean_unit_s(pacer.take())
    try:
        if mode != "setup":
            workloads.call_driver(name, int(seed), str(out / "result.csv"),
                                  experiments, tiny=tiny)
    finally:
        # taken before the spans are written, so the traced wall excludes it
        t_end = clock()
        pacer.stop()
        if tracer is not None:
            tracer.dump(out / "spans.json")
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # a call too short to be sampled ran at about the speed of the setup
    run_unit = pace.mean_unit_s(pacer.take()) or setup_unit
    print(json.dumps({"t_call": t_call, "t_end": t_end, "rss_mib": rss_mib,
                      "setup_unit_s": setup_unit, "run_unit_s": run_unit,
                      "solves": workloads.num_solves(name, experiments,
                                                     tiny=tiny)}))


if __name__ == "__main__":
    main(sys.argv[1:])
