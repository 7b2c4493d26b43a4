"""Command-line interface.

Subcommands: entropy, verify, closed-sim, open-sim, free-energy.
Exit codes: 0 ok, 1 usage or schema problem, 2 hard property violation.
Entropies print in nats; --bits rescales the displayed values by 1/ln 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .coarse_graining import (
    alpha_oe,
    alpha_oe_divergence_form,
    alpha_oe_gap,
    observational_entropy,
)
from .divergences import renyi_entropy
from .errors import ObsentError, SchemaError
from .operators import validate_operator
from .serialize import (
    _floats,
    coarse_graining_from_json,
    dump_json,
    format_float,
    load_json,
    resolve_operator,
    run_to_csv,
)
from .thermo import (
    DrivingProtocol,
    EnergyWindowing,
    LevelSystem,
    closed_run,
    free_energy,
    jackson_check,
    open_run,
)
from .verify import _SUITES, VerificationReport, run_suite


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="obsent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ent = sub.add_parser("entropy", help="entropies of a state under a coarse-graining")
    p_ent.add_argument("state", help="state operator JSON file")
    p_ent.add_argument("coarse_graining", help="coarse-graining JSON file")
    p_ent.add_argument("--alpha", type=float, action="append", default=None)
    p_ent.add_argument("--bits", action="store_true", help="display in bits")
    p_ent.add_argument("--out", default=None, help="also write the table as JSON")

    p_ver = sub.add_parser("verify", help="run a randomized property suite")
    p_ver.add_argument(
        "--suite",
        default="all",
        choices=[*_SUITES, "all"],
    )
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--n", type=int, default=200)
    p_ver.add_argument("--dim", type=int, default=6, help="max Hilbert dimension")
    p_ver.add_argument("--out", default=None, help="write the JSON report here")
    p_ver.add_argument(
        "--inject-invalid",
        action="store_true",
        help="feed one non-stochastic refinement map to exercise the failure path",
    )

    runs = (("closed-sim", "closed-system driven run"), ("open-sim", "system-bath run"))
    for name, text in runs:
        p = sub.add_parser(name, help=text)
        p.add_argument("config", help="run configuration JSON file")
        p.add_argument("--out", default=None, help="write CSV here (default stdout)")

    p_free = sub.add_parser("free-energy", help="level-system free energies")
    p_free.add_argument("levels", help="level-system JSON file")
    p_free.add_argument("--t0", type=float, required=True, help="base temperature")
    p_free.add_argument("--alpha", type=float, action="append", default=None)
    p_free.add_argument("--bits", action="store_true")
    p_free.add_argument("--out", default=None, help="also write the table as JSON")
    return parser


def _scale(bits: bool) -> float:
    return 1.0 / math.log(2.0) if bits else 1.0


def _unit(bits: bool) -> str:
    return "bits" if bits else "nats"


def cmd_entropy(args) -> int:
    rho = validate_operator(
        resolve_operator(load_json(args.state), Path(args.state).parent), "density"
    )
    cg = coarse_graining_from_json(load_json(args.coarse_graining))
    alphas = args.alpha or [2.0]
    k = _scale(args.bits)
    rows = []
    print(f"dim = {cg.dim}, outcomes = {len(cg)}, units = {_unit(args.bits)}")
    oe = observational_entropy(cg, rho)
    print(f"observational entropy        {k * oe:.12g}")
    header = f"{'alpha':>8}  {'alpha_oe':>18}  {'divergence_form':>18}  {'renyi':>18}  {'gap':>18}"
    print(header)
    for a in alphas:
        s = alpha_oe(cg, rho, a)
        s_div = alpha_oe_divergence_form(cg, rho, a)
        s_r = renyi_entropy(rho, a)
        gap = alpha_oe_gap(cg, rho, a)
        print(
            f"{a:>8g}  {k * s:>18.12g}  {k * s_div:>18.12g}"
            f"  {k * s_r:>18.12g}  {k * gap:>18.12g}"
        )
        rows.append(
            {
                "alpha": a,
                "alpha_oe": k * s,
                "divergence_form": k * s_div,
                "renyi": k * s_r,
                "gap": k * gap,
            }
        )
    if args.out:
        dump_json(
            {"units": _unit(args.bits), "observational_entropy": k * oe, "rows": rows},
            args.out,
        )
    return 0


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _print_report(report: VerificationReport) -> None:
    for prop in report.properties:
        worst = prop.worst_margin
        worst_s = "INFINITE" if math.isinf(worst) else format_float(worst)
        status = "PASS" if prop.fails == 0 else "FAIL"
        if prop.mode == "survey":
            status = "SURVEY"
        print(
            f"[{status:>6}] {prop.name:<40} mode={prop.mode:<6} "
            f"instances={prop.instances:<6} fails={prop.fails:<5} "
            f"worst_margin={worst_s}"
        )
    print(
        f"suite={report.suite} seed={report.seed} "
        f"hard_failures={report.hard_failures} exit={report.exit_code}"
    )


def cmd_verify(args) -> int:
    """Run the named suite, or every suite for `all`, and print its report.

    `all` runs its suites in up to one forked worker process per usable
    CPU. The suites share no state and draw from their own random streams,
    and their results are assembled in the fixed suite order, so the
    report, the printout and the exit code are those of the Python
    `run_suite("all", ...)`, which itself stays in-process. A worker that
    dies exits 1 with one line.
    """
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    suite_report = functools.partial(
        run_suite, seed=args.seed, n=args.n, dim_max=args.dim,
        inject_invalid=args.inject_invalid,
    )
    workers = min(len(names), _usable_cpus()) if hasattr(os, "fork") else 1
    if workers < 2:
        parts = list(map(suite_report, names))
    else:
        # imported here: at module level they add about 20 ms to every command
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        context = multiprocessing.get_context("fork")
        try:
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                parts = list(pool.map(suite_report, names))
        except BrokenProcessPool as exc:
            print(f"obsent: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    props = [prop for part in parts for prop in part.properties]
    report = VerificationReport(args.suite, args.seed, args.n, args.dim, props)
    _print_report(report)
    if args.out:
        dump_json(report.to_json(), args.out)
    return report.exit_code


_REQUIRED = object()


def _field(cfg, key: str, default=_REQUIRED):
    """cfg[key] of a JSON object; default, when given, stands in for a missing key."""
    if not isinstance(cfg, dict):
        raise SchemaError(f"expected a JSON object holding {key!r}, got {cfg!r:.40}")
    if key in cfg:
        return cfg[key]
    if default is _REQUIRED:
        raise SchemaError(f"missing {key!r}")
    return default


def _numbers(cfg, key: str) -> np.ndarray:
    return _floats(_field(cfg, key), key, 1)


def _number(cfg, key: str, default=_REQUIRED):
    """cfg[key] as a float; a missing key gives the default as it is."""
    value = _field(cfg, key, default)
    return float(_floats(value, key, 0)) if key in cfg else value


def _sample_times(node, horizon) -> np.ndarray:
    if isinstance(node, list):
        return _floats(node, "sample_times", 1)
    if isinstance(node, dict) and "count" in node:
        count = node["count"]
        if not isinstance(count, int) or count <= 0:
            raise SchemaError("sample_times.count must be a positive integer")
        end = _number(node, "horizon", horizon if horizon is not None else 0.0)
        if end <= 0:
            raise SchemaError("sample_times.horizon must be positive")
        return np.linspace(end / count, end, count)
    raise SchemaError("sample_times must be a list or {'count': ..., 'horizon': ...}")


def _finish_run(record, warning: str, out) -> None:
    """Report the void guarantee and the findings on stderr, then write the CSV."""
    if record.guarantee_void:
        print(f"warning: {warning}; entropy-production guarantee void", file=sys.stderr)
    for finding in record.findings:
        print(f"finding: {json.dumps(finding, sort_keys=True)}", file=sys.stderr)
    csv_text = run_to_csv(record)
    if out:
        Path(out).write_text(csv_text, encoding="utf-8")
    else:
        sys.stdout.write(csv_text)


def _operator(cfg, key: str, base: Path) -> np.ndarray:
    return resolve_operator(_field(cfg, key), base)


def cmd_closed_sim(args) -> int:
    cfg = load_json(args.config)
    base = Path(args.config).parent
    segments = _field(cfg, "protocol")
    if not isinstance(segments, list):
        raise SchemaError(f"'protocol' must be a list, got {segments!r:.40}")
    protocol = DrivingProtocol(
        tuple(
            (_operator(seg, "hamiltonian", base), _number(seg, "duration"))
            for seg in segments
        )
    )
    rho0 = validate_operator(_operator(cfg, "initial_state", base), "density")
    windowing = EnergyWindowing(_number(cfg, "delta"), _number(cfg, "origin", None))
    times = _sample_times(_field(cfg, "sample_times"), protocol.total_duration)
    record = closed_run(protocol, rho0, windowing, _numbers(cfg, "alphas"), times)
    warning = "initial state is not coarse-grained for the initial energy windows"
    _finish_run(record, warning, args.out)
    for a in sorted({s.alpha for s in record.samples}):
        min_ds = min(s.delta_entropy for s in record.samples if s.alpha == a)
        print(f"alpha={a:g} min dS={format_float(min_ds)}", file=sys.stderr)
    return 0


def cmd_open_sim(args) -> int:
    cfg = load_json(args.config)
    base = Path(args.config).parent
    basis = _field(cfg, "system_basis", None)
    record = open_run(
        _operator(cfg, "system_hamiltonian", base),
        _operator(cfg, "bath_hamiltonian", base),
        _operator(cfg, "coupling", base),
        validate_operator(_operator(cfg, "system_state", base), "density"),
        _number(cfg, "bath_beta"),
        EnergyWindowing(_number(cfg, "delta"), _number(cfg, "origin", None)),
        _numbers(cfg, "alphas"),
        _sample_times(_field(cfg, "sample_times"), None),
        system_basis=None if basis is None else resolve_operator(basis, base),
    )
    warning = "initial joint state is not coarse-grained for the product windows"
    _finish_run(record, warning, args.out)
    return 0


def cmd_free_energy(args) -> int:
    obj = load_json(args.levels)
    levels = LevelSystem(_numbers(obj, "energies"), _number(obj, "volume", 1.0))
    alphas = args.alpha or [2.0]
    k = _scale(args.bits)
    fe = free_energy(levels, args.t0)
    print(
        f"T0={args.t0:g}  Z={fe.partition:.12g}  Z_scaled={fe.partition_scaled:.12g}"
        f"  A={fe.helmholtz:.12g}  A_scaled={fe.helmholtz_scaled:.12g}"
    )
    print(f"{'alpha':>8}  {'lhs':>18}  {'rhs':>18}  {'gap':>12}  units={_unit(args.bits)}")
    rows = []
    for a in alphas:
        lhs, rhs, gap = jackson_check(levels, args.t0, a)
        print(f"{a:>8g}  {k * lhs:>18.12g}  {k * rhs:>18.12g}  {k * gap:>12.3e}")
        rows.append({"alpha": a, "lhs": k * lhs, "rhs": k * rhs, "gap": k * gap})
    if args.out:
        dump_json(
            {
                "t0": args.t0,
                "units": _unit(args.bits),
                "partition": fe.partition,
                "partition_scaled": fe.partition_scaled,
                "helmholtz": fe.helmholtz,
                "helmholtz_scaled": fe.helmholtz_scaled,
                "rows": rows,
            },
            args.out,
        )
    return 0


_COMMANDS = {
    "entropy": cmd_entropy,
    "verify": cmd_verify,
    "closed-sim": cmd_closed_sim,
    "open-sim": cmd_open_sim,
    "free-energy": cmd_free_energy,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ObsentError as exc:
        print(f"obsent: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"obsent: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
