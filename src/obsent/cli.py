"""Command-line interface.

Subcommands: entropy, verify, closed-sim, open-sim, free-energy.
Exit codes: 0 ok, 1 usage or schema problem, 2 hard property violation.
Entropies print in nats; --bits rescales the displayed values by 1/ln 2.
"""

from __future__ import annotations

import argparse
import json
import math
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
from .verify import _SUITES, run_suite


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

    p_closed = sub.add_parser("closed-sim", help="closed-system driven run")
    p_closed.add_argument("config", help="run configuration JSON file")
    p_closed.add_argument("--out", default=None, help="write CSV here (default stdout)")

    p_open = sub.add_parser("open-sim", help="system-bath run")
    p_open.add_argument("config", help="run configuration JSON file")
    p_open.add_argument("--out", default=None, help="write CSV here (default stdout)")

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


def cmd_verify(args) -> int:
    report = run_suite(
        args.suite,
        seed=args.seed,
        n=args.n,
        dim_max=args.dim,
        inject_invalid=args.inject_invalid,
    )
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
    if args.out:
        dump_json(report.to_json(), args.out)
    return report.exit_code


def _sample_times(node, horizon) -> np.ndarray:
    if isinstance(node, list):
        return np.array([float(t) for t in node])
    if isinstance(node, dict) and "count" in node:
        count = int(node["count"])
        if count <= 0:
            raise SchemaError("sample_times.count must be a positive integer")
        end = float(node.get("horizon", horizon if horizon is not None else 0.0))
        if end <= 0:
            raise SchemaError("sample_times.horizon must be positive")
        return np.linspace(end / count, end, count)
    raise SchemaError("sample_times must be a list or {'count': ..., 'horizon': ...}")


def _emit_csv(csv_text: str, out) -> None:
    if out:
        Path(out).write_text(csv_text, encoding="utf-8")
    else:
        sys.stdout.write(csv_text)


def cmd_closed_sim(args) -> int:
    cfg = load_json(args.config)
    base = Path(args.config).parent
    for key in ("protocol", "initial_state", "delta", "alphas", "sample_times"):
        if key not in cfg:
            raise SchemaError(f"closed-sim config needs {key!r}")
    segments = []
    for seg in cfg["protocol"]:
        h = validate_operator(resolve_operator(seg["hamiltonian"], base), "hermitian")
        segments.append((h.matrix, float(seg["duration"])))
    protocol = DrivingProtocol(tuple(segments))
    rho0 = validate_operator(resolve_operator(cfg["initial_state"], base), "density")
    windowing = EnergyWindowing(float(cfg["delta"]), cfg.get("origin"))
    times = _sample_times(cfg["sample_times"], protocol.total_duration)
    record = closed_run(protocol, rho0, windowing, cfg["alphas"], times)
    if record.guarantee_void:
        print(
            "warning: initial state is not coarse-grained for the initial "
            "energy windows; entropy-production guarantee void",
            file=sys.stderr,
        )
    for finding in record.findings:
        print(f"finding: {json.dumps(finding, sort_keys=True)}", file=sys.stderr)
    _emit_csv(run_to_csv(record), args.out)
    by_alpha = {}
    for s in record.samples:
        by_alpha.setdefault(s.alpha, []).append(s.delta_entropy)
    for a in sorted(by_alpha):
        print(
            f"alpha={a:g} min dS={format_float(min(by_alpha[a]))}",
            file=sys.stderr,
        )
    return 0


def cmd_open_sim(args) -> int:
    cfg = load_json(args.config)
    base = Path(args.config).parent
    for key in (
        "system_hamiltonian",
        "bath_hamiltonian",
        "coupling",
        "system_state",
        "bath_beta",
        "delta",
        "alphas",
        "sample_times",
    ):
        if key not in cfg:
            raise SchemaError(f"open-sim config needs {key!r}")
    h_s = validate_operator(resolve_operator(cfg["system_hamiltonian"], base), "hermitian")
    h_b = validate_operator(resolve_operator(cfg["bath_hamiltonian"], base), "hermitian")
    v_sb = validate_operator(resolve_operator(cfg["coupling"], base), "hermitian")
    rho_s = validate_operator(resolve_operator(cfg["system_state"], base), "density")
    basis = None
    if "system_basis" in cfg:
        basis = resolve_operator(cfg["system_basis"], base)
    windowing = EnergyWindowing(float(cfg["delta"]), cfg.get("origin"))
    times = _sample_times(cfg["sample_times"], None)
    record = open_run(
        h_s,
        h_b,
        v_sb,
        rho_s,
        float(cfg["bath_beta"]),
        windowing,
        cfg["alphas"],
        times,
        system_basis=basis,
    )
    if record.guarantee_void:
        print(
            "warning: initial joint state is not coarse-grained for the "
            "product windows; entropy-production guarantee void",
            file=sys.stderr,
        )
    for finding in record.findings:
        print(f"finding: {json.dumps(finding, sort_keys=True)}", file=sys.stderr)
    _emit_csv(run_to_csv(record), args.out)
    return 0


def cmd_free_energy(args) -> int:
    obj = load_json(args.levels)
    if "energies" not in obj:
        raise SchemaError("level-system file needs 'energies'")
    levels = LevelSystem(
        np.asarray(obj["energies"], dtype=float), float(obj.get("volume", 1.0))
    )
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
