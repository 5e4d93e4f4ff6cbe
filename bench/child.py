"""One timed ``regap run`` in a fresh interpreter.

Usage: child.py RESULT_JSON [--trace SPANS_JSON RUN_ID] -- REGAP_ARGS...

Times ``import regap.cli`` (set-up) and ``regap.cli.main(REGAP_ARGS)``
(wall) separately, and the reference kernel of ``calibrate.py`` right before
and after the call.  Writes the times, the exit code, peak RSS and library
versions to RESULT_JSON.  With ``--trace`` the layers are wrapped after the
import and the spans are written to SPANS_JSON once the run has ended.
"""

import contextlib
import io
import json
import resource
import statistics
import sys
import time


def main(argv: list[str]) -> None:
    split = argv.index("--")
    opts, regap_args = argv[:split], argv[split + 1:]
    result_path = opts[0]

    start = time.perf_counter()
    import regap.cli
    setup_s = time.perf_counter() - start

    import calibrate
    recorder = None
    if "--trace" in opts:
        import tracer
        spans_path, run_id = opts[opts.index("--trace") + 1:][:2]
        recorder = tracer.Recorder(run_id)
        tracer.install(recorder)

    reference = calibrate.reference_times()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = regap.cli.main(regap_args)
        wall_s = time.perf_counter() - start
    reference += calibrate.reference_times()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if recorder is not None:
        recorder.write(spans_path)

    import numpy
    import scipy
    with open(result_path, "w") as fh:
        json.dump({
            "exit_code": code,
            "setup_s": setup_s,
            "wall_s": wall_s,
            "ref_s": statistics.median(reference),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "regap_file": regap.cli.__file__,
            "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "scipy": scipy.__version__},
        }, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
