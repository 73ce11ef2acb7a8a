"""Command-line interface.

Every CSV the tool writes starts with comment lines recording the tool version,
a timestamp, the exact command, and the seed, so any output can be traced back
to its invocation. Re-running a command with the same flags and seed reproduces
the CSV body byte for byte (only the timestamp line differs). Exit codes:
0 success, 1 domain error (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import datetime
import math
import shlex
import sys
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import __version__
from .diagnostics import (
    ConvergenceRow,
    InsufficientSamplesError,
    convergence_study,
    decay_study,
)
from .geom import (
    DuplicateNodesError,
    NodeFileError,
    gen_fibonacci,
    gen_icosahedral,
    gen_icosahedral_freq,
    geodesic_distance,
    load_nodes,
    mesh_stats,
    save_nodes,
    sphere_point,
)
from .gramstudy import CAP_GRAM_ORDER, cap_gram_analytic, cap_gram_compare, min_eig_ratio
from .kernel import KernelSpec, evaluate_expansion
from .locallag import (
    FootprintRule,
    StencilFailureError,
    build_local_basis,
    interpolate_preconditioned,
    load_basis,
    load_coeffs,
    save_basis,
    save_coeffs,
)
from .neighbors import build_index
from .solver import (
    GmresNotConvergedError,
    NonUnisolventError,
    SingularSystemError,
    sym_eig_minmax,
)

DOMAIN_ERRORS = (
    NodeFileError,
    DuplicateNodesError,
    SingularSystemError,
    NonUnisolventError,
    StencilFailureError,
    GmresNotConvergedError,
    InsufficientSamplesError,
    ValueError,
    OSError,
)


@dataclass
class RunConfig:
    """Snapshot of one invocation, embedded in every output CSV."""

    argv: list
    seed: int
    version: str = __version__

    def comment_lines(self):
        cmd = " ".join(shlex.quote(str(a)) for a in self.argv)
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
        return [
            f"# spherelag {self.version}",
            f"# timestamp: {stamp}",
            f"# command: spherelag {cmd}",
            f"# seed: {self.seed}",
        ]


def _fmt(value):
    if isinstance(value, float):
        return repr(float(value))  # plain float repr even for numpy scalars
    return str(value)


def write_csv(dest, header, rows, config, extra=()):
    lines = config.comment_lines()
    lines += [f"# {item}" for item in extra]
    lines.append(",".join(header))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if dest in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_data(path, n, rng):
    if path is None:
        return rng.uniform(-1.0, 1.0, size=n)
    data = np.loadtxt(path, comments="#", ndmin=1, dtype=np.float64)
    if data.shape != (n,):
        raise ValueError(f"{path}: expected {n} values, one per line, found shape {data.shape}")
    finite = np.isfinite(data)
    if not finite.all():
        raise ValueError(f"{path}: value {int(np.argmin(finite)) + 1} is not finite")
    return data


def _footprint_from_args(args):
    if args.n is not None:
        return FootprintRule(fixed_n=args.n)
    if args.radius_K is not None:
        return FootprintRule(mode="radius", M=args.radius_K)
    return FootprintRule(M=args.M)  # M None: the default count rule


# ---- subcommands ---- #

def cmd_nodes_gen(args, config):
    if args.kind == "icosahedral":
        if (args.level is None) == (args.freq is None):
            raise ValueError("icosahedral generation needs exactly one of --level / --freq")
        nodes = gen_icosahedral(args.level) if args.level is not None else gen_icosahedral_freq(args.freq)
    else:
        if args.n is None:
            raise ValueError("fibonacci generation needs --n")
        nodes = gen_fibonacci(args.n)
    save_nodes(args.out, nodes)
    return 0


def cmd_nodes_stats(args, config):
    nodes = load_nodes(args.file)
    stats = mesh_stats(nodes, probe_n=args.probe)
    write_csv(
        args.out,
        ["n_nodes", "h", "q", "rho", "probe_n"],
        [(len(nodes), stats.h, stats.q, stats.rho, stats.n_probe)],
        config,
    )
    return 0


def cmd_build(args, config):
    nodes = load_nodes(args.nodes)
    spec = KernelSpec(args.m)
    basis = build_local_basis(nodes, spec, _footprint_from_args(args))
    save_basis(args.out, basis)
    return 0


def cmd_solve(args, config):
    nodes = load_nodes(args.nodes)
    spec = KernelSpec(args.m)
    basis = load_basis(args.basis, nodes, spec)
    rng = np.random.default_rng(config.seed)
    data = _load_data(args.data, len(nodes), rng)

    failure = None
    try:
        a, c, report = interpolate_preconditioned(
            nodes, spec, basis, data, tol=args.tol, maxit=args.maxit
        )
    except GmresNotConvergedError as exc:
        failure, report = exc, exc.report
    if args.report:  # written for a run that did not converge too
        write_csv(
            args.report,
            ["iteration", "relres"],
            [(i, float(r)) for i, r in enumerate(report.residual_history)],
            config,
            extra=[
                f"n_nodes={len(nodes)} m={spec.m} tol={args.tol!r} maxit={args.maxit}",
                f"iterations={report.iterations} converged={report.converged}",
                f"final_relres={report.final_relres!r}",
                f"final_check={report.final_check!r}",
            ],
        )
    if failure is not None:
        raise failure
    if args.out:
        save_coeffs(args.out, nodes, spec, a, c)
    return 0


def _parse_grid(text):
    if not text.startswith("grid:"):
        return None
    try:
        n_lat, n_lon = (int(side) for side in text[5:].split("x"))
    except ValueError:
        raise ValueError(f"bad grid spec {text!r}, expected grid:NLATxNLON") from None
    if n_lat < 1 or n_lon < 1:
        raise ValueError(f"bad grid spec {text!r}: each side must be at least 1")
    return n_lat, n_lon


def cmd_eval(args, config):
    nodes = load_nodes(args.nodes)
    spec = KernelSpec(args.m)
    a, c = load_coeffs(args.coeffs, nodes, spec)
    grid = _parse_grid(args.at)
    if grid is not None:
        n_lat, n_lon = grid
        lats = np.linspace(-90.0, 90.0, n_lat)
        lons = np.linspace(0.0, 360.0, n_lon, endpoint=False)
        lat_r, lon_r = np.radians(lats), np.radians(lons)
        cos_lat = np.cos(lat_r)
        pts = np.empty((n_lat * n_lon, 3))
        pts[:, 0] = np.outer(cos_lat, np.cos(lon_r)).ravel()
        pts[:, 1] = np.outer(cos_lat, np.sin(lon_r)).ravel()
        pts[:, 2] = np.repeat(np.sin(lat_r), n_lon)
        vals = evaluate_expansion(spec, nodes.points, a, c, pts)
        rows = [
            (float(lons[j]), float(lats[i]), float(vals[i * n_lon + j]))
            for i in range(n_lat)
            for j in range(n_lon)
        ]
        write_csv(args.out, ["lon_deg", "lat_deg", "value"], rows, config)
    else:
        where = load_nodes(args.at)
        vals = evaluate_expansion(spec, nodes.points, a, c, where.points)
        rows = [
            (float(x), float(y), float(z), float(v))
            for (x, y, z), v in zip(where.points, vals)
        ]
        write_csv(args.out, ["x", "y", "z", "value"], rows, config)
    return 0


def cmd_gram(args, config):
    G = cap_gram_analytic(args.r)
    mu_ratio = min_eig_ratio(args.r)
    lam_min, lam_max = sym_eig_minmax(G)
    extra = [
        f"r={args.r!r}",
        f"lambda_min={lam_min!r} lambda_max={lam_max!r}",
        f"min_eig_ratio_vs_r4_over_256pi={mu_ratio!r}",
        f"order={CAP_GRAM_ORDER}",
    ]
    rows = [
        (i, j, float(G[i, j])) for i in range(4) for j in range(4)
    ]
    if args.nodes:
        nodes = load_nodes(args.nodes)
        try:
            lon, lat = (math.radians(float(x)) for x in args.cap_center.split(","))
        except ValueError:
            raise ValueError(f"--cap-center {args.cap_center}: expected lon,lat degrees") from None
        try:
            center = sphere_point(
                math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)
            )
        except ValueError as exc:
            raise ValueError(f"--cap-center {args.cap_center}: {exc}") from None
        inside = geodesic_distance(center, nodes.points) <= args.r
        report = cap_gram_compare(nodes.points[inside], center, args.r)
        extra += [
            f"discrete: n_points={report.n_points} norm_inv={report.norm_inv_discrete!r}",
            f"discrete: bound={report.bound!r} satisfied={report.satisfied}",
            f"discrete: h_cap={report.h_cap!r} h_ratio={report.h_ratio!r} "
            f"within_hypothesis={report.within_hypothesis}",
        ]
    write_csv(args.out, ["i", "j", "G"], rows, config, extra=extra)
    return 0


def cmd_study_decay(args, config):
    nodes = load_nodes(args.nodes)
    spec = KernelSpec(args.m)
    study = decay_study(nodes, spec, center_idx=args.center_idx)
    extra = [
        f"center_idx={study.center_idx} h={study.h!r} q={study.q!r}",
        f"nu_function={study.fit_function.nu!r} C_function={study.fit_function.C!r} "
        f"window={study.fit_function.window}",
        f"nu_coefficient={study.fit_coefficient.nu!r} C_coefficient={study.fit_coefficient.C!r} "
        f"window={study.fit_coefficient.window}",
        f"plateau_fraction_function={study.plateau_fraction_function!r}",
        f"plateau_fraction_coefficient={study.plateau_fraction_coefficient!r}",
        f"iterations={study.iterations} final_check={study.final_check!r}",
    ]
    rows = [("function", float(t), float(v)) for t, v in study.function_samples]
    rows += [("coefficient", float(t), float(v)) for t, v in study.coefficient_samples]
    write_csv(args.out, ["kind", "t", "value"], rows, config, extra=extra)
    return 0


_FIELDS = {
    "one": lambda pts: np.ones(pts.shape[0]),
    "linear": lambda pts: 0.3 + pts[:, 0] - 2.0 * pts[:, 1] + 0.5 * pts[:, 2],
    "expz": lambda pts: np.exp(pts[:, 2]),
}


def _sizes(text):
    """The --sizes list: comma-separated integers."""
    try:
        return [int(size) for size in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, such as 400,900,1600, got {text!r}"
        ) from None


def _study_sets(args):
    """The node set of each of --sizes; two sizes that give the same set are an error.

    An icosahedral size is rounded to the nearest member of the 10*4^level + 2 family.
    """
    sets, first = [], {}
    for size in args.sizes:
        if args.kind == "fibonacci":
            nodes = gen_fibonacci(size)
        elif size < 12:
            raise ValueError(f"icosahedral sizes start at 12 nodes (level 0), got {size}")
        else:
            nodes = gen_icosahedral(round(math.log((size - 2) / 10, 4)))
        count = len(nodes)
        if count in first:
            raise ValueError(f"sizes {first[count]} and {size} both give the {count}-node set")
        first[count] = size
        sets.append(nodes)
    return sets


def cmd_study_convergence(args, config):
    spec = KernelSpec(args.m)
    rows = convergence_study(_study_sets(args), spec, _FIELDS[args.f])
    write_csv(
        args.out,
        [field.name for field in fields(ConvergenceRow)],
        [astuple(r) for r in rows],
        config,
        extra=[f"kind={args.kind} f={args.f} m={spec.m}"],
    )
    return 0


def cmd_study_table1(args, config):
    spec = KernelSpec(args.m)
    rows = []
    for nodes in _study_sets(args):
        study = decay_study(nodes, spec)
        rows.append(
            (
                len(nodes),
                study.h,
                study.h / study.q,
                study.fit_function.nu,
                study.fit_function.C,
                study.fit_coefficient.nu,
                study.fit_coefficient.C,
                study.iterations,
                study.final_check,
            )
        )
    write_csv(
        args.out,
        ["n_nodes", "h", "rho", "nu_L", "C_L", "nu_c", "C_c", "iterations", "final_check"],
        rows,
        config,
        extra=[f"kind={args.kind} m={spec.m}"],
    )
    return 0


# ---- parser ---- #

def build_parser():
    parser = argparse.ArgumentParser(
        prog="spherelag",
        description="Sparse local Lagrange bases for surface-spline interpolation on the sphere.",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    nodes = sub.add_parser("nodes", help="generate node sets and report mesh statistics")
    nodes_sub = nodes.add_subparsers(dest="nodes_command", required=True)
    gen = nodes_sub.add_parser("gen", help="write a node file")
    gen.add_argument("--kind", choices=["icosahedral", "fibonacci"], required=True)
    gen.add_argument("--level", type=int, help="icosahedral bisection level (N = 10*4^level+2)")
    gen.add_argument("--freq", type=int, help="icosahedral subdivision frequency (N = 10*freq^2+2)")
    gen.add_argument("--n", type=int, help="fibonacci node count")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_nodes_gen)
    stats = nodes_sub.add_parser("stats", help="h, q, rho of a node file")
    stats.add_argument("file")
    stats.add_argument("--probe", type=int, default=None, help="probe count for h")
    stats.add_argument("--out", default=None, help="CSV path (default stdout)")
    stats.set_defaults(func=cmd_nodes_stats)

    build = sub.add_parser("build", help="build and save a local Lagrange basis")
    build.add_argument("--nodes", required=True)
    build.add_argument("--m", type=int, default=2)
    size = build.add_mutually_exclusive_group()
    size.add_argument("--M", type=float, default=None, help="count rule multiplier (natural log)")
    size.add_argument("--n", type=int, default=None, help="fixed footprint size")
    size.add_argument("--radius-K", type=float, default=None, help="radius rule K*h*log(1/h)")
    build.add_argument("--out", required=True)
    build.set_defaults(func=cmd_build)

    solve = sub.add_parser("solve", help="preconditioned GMRES interpolation solve")
    solve.add_argument("--nodes", required=True)
    solve.add_argument("--basis", required=True)
    solve.add_argument("--m", type=int, default=2)
    solve.add_argument("--data", default=None, help="value file; default seeded uniform [-1,1]")
    solve.add_argument("--tol", type=float, default=1e-6)
    solve.add_argument("--maxit", type=int, default=200)
    solve.add_argument("--out", default=None, help="coefficient npz file")
    solve.add_argument("--report", default=None, help="iteration report CSV")
    solve.set_defaults(func=cmd_solve)

    ev = sub.add_parser("eval", help="evaluate saved coefficients on a grid or point file")
    ev.add_argument("--nodes", required=True)
    ev.add_argument("--coeffs", required=True)
    ev.add_argument("--m", type=int, default=2)
    ev.add_argument("--at", default="grid:300x600", help="grid:NLATxNLON or a point file")
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=cmd_eval)

    gram = sub.add_parser("gram", help="analytic cap Gram matrix and discrete comparison")
    gram.add_argument("--r", type=float, required=True)
    gram.add_argument("--nodes", default=None)
    gram.add_argument("--cap-center", default="0,90", help="lon,lat degrees (default north pole)")
    gram.add_argument("--out", default=None)
    gram.set_defaults(func=cmd_gram)

    study = sub.add_parser("study", help="decay, convergence, and summary-table studies")
    study_sub = study.add_subparsers(dest="study_command", required=True)
    decay = study_sub.add_parser("decay", help="decay of one local Lagrange function")
    decay.add_argument("--nodes", required=True)
    decay.add_argument("--m", type=int, default=2)
    decay.add_argument("--center-idx", type=int, default=None)
    decay.add_argument("--out", default=None)
    decay.set_defaults(func=cmd_study_decay)
    conv = study_sub.add_parser("convergence", help="interpolation and quasi-interpolation errors")
    table = study_sub.add_parser("table1", help="decay rates over a ladder of node sets")
    for ladder in (conv, table):
        ladder.add_argument("--m", type=int, default=2)
        ladder.add_argument("--kind", choices=["fibonacci", "icosahedral"], default="fibonacci")
        ladder.add_argument("--sizes", type=_sizes, default="400,900,1600")
    conv.add_argument("--f", choices=sorted(_FIELDS), default="expz")
    for ladder, func in ((conv, cmd_study_convergence), (table, cmd_study_table1)):
        ladder.add_argument("--out", default=None)
        ladder.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    config = RunConfig(argv=argv, seed=args.seed)
    try:
        return args.func(args, config)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
