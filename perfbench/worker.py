"""One fresh-interpreter step of the benchmark: an import or a CLI call.

Usage:
    python3 worker.py import SRC RESULT   time `import obsent, obsent.cli`
    python3 worker.py op SPEC.json        run one `obsent.cli.main(argv)`

SRC is the directory holding the obsent package. The import step loads
only `sys` and `time` before the timed import, so it measures what every
CLI invocation pays, and writes the seconds to RESULT. SPEC holds "src",
"argv", "cwd", "trace", "result" (the result JSON path) and "spans" (where a
traced call saves its spans).
"""

import sys
import time


def _import_obsent(src: str):
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import obsent
    import obsent.cli

    elapsed = time.perf_counter() - t0
    from pathlib import Path

    if Path(src).resolve() not in Path(obsent.__file__).resolve().parents:
        raise SystemExit(f"imported obsent from {obsent.__file__}, not from {src}")
    return elapsed


def main() -> int:
    if sys.argv[1] == "import":
        elapsed = _import_obsent(sys.argv[2])
        with open(sys.argv[3], "w", encoding="utf-8") as fh:
            fh.write(repr(elapsed))
        return 0
    import json

    with open(sys.argv[2], encoding="utf-8") as fh:
        spec = json.load(fh)
    _import_obsent(spec["src"])
    result = run_op(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run_op(spec: dict) -> dict:
    import contextlib
    import os
    import resource
    import traceback
    from pathlib import Path

    os.chdir(spec["cwd"])
    store = restore = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
        from perfbench import tracer

        store, restore = tracer.install()
    cli_main = sys.modules["obsent.cli"].main
    error = None
    with open("stdout.txt", "w", encoding="utf-8") as out, open(
        "stderr.txt", "w", encoding="utf-8"
    ) as err, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            code = cli_main(spec["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code, error = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    result = {
        "exit_code": code,
        "error": error,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if store is not None:
        restore()
        result["layers"] = tracer.layer_metrics(store)
        result["spans"] = len(store.start)
        store.save(spec["spans"])
    return result


if __name__ == "__main__":
    sys.exit(main())
