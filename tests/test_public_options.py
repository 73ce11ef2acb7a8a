"""The option surface: every exported callable's keyword options, and every CLI flag.

A keyword option is a parameter with a default, keyword-only or not; the
fields of a dataclass are the parameters of its constructor, so a field with a
default counts too. Public methods of exported classes are listed as
Class.method. Adding or removing a callable or an option fails this test until
OPTIONS changes with it, so each change to the surface is made on purpose.
FLAGS does the same for the long options of each command of the CLI.
"""

import argparse
import inspect
import types

import spherelag
from spherelag import cli

OPTIONS = {
    "CapGramReport": (),
    "ConvergenceRow": (),
    "DecayFit": (),
    "DecayStudy": (),
    "DuplicateNodesError": (),
    "FootprintRule": ("mode", "M", "fixed_n"),
    "FootprintRule.stencil_count": (),
    "FootprintRule.stencil_radius": (),
    "GmresNotConvergedError": (),
    "GmresReport": ("final_check",),
    "HarmonicBasis": (),
    "HarmonicBasis.eval": (),
    "HarmonicBasis.orders": (),
    "InsufficientSamplesError": (),
    "KernelMatvec": ("materialize_limit",),
    "KernelSpec": (),
    "LocalBasis": ("min_pivot_ratio", "grown"),
    "MeshStats": (),
    "NodeFileError": (),
    "NodeSet": ("stats",),
    "NodeSet.fingerprint": (),
    "NonUnisolventError": (),
    "QuasiInterpolant": (),
    "SaddleSystem": (),
    "SingularSystemError": (),
    "StencilFailureError": (),
    "assemble_saddle": ("subset",),
    "ball": (),
    "build_index": (),
    "build_local_basis": ("footprint",),
    "cap_area": (),
    "cap_gram_analytic": (),
    "cap_gram_compare": (),
    "convergence_study": ("footprint",),
    "decay_study": ("center_idx",),
    "ensure_stats": (),
    "eval_kernel": (),
    "eval_local_function": (),
    "evaluate_expansion": (),
    "factor_solve": (),
    "fit_decay": ("q", "m"),
    "gen_fibonacci": (),
    "gen_icosahedral": (),
    "gen_icosahedral_freq": (),
    "geodesic_distance": (),
    "gmres": ("x0", "tol", "maxit"),
    "harmonic_basis_for": (),
    "interpolate_preconditioned": ("tol", "maxit", "materialize_limit"),
    "kernel_matrix": ("pts_b",),
    "kernel_sum": (),
    "knn": (),
    "knn_all": (),
    "load_basis": (),
    "load_coeffs": (),
    "load_nodes": (),
    "mesh_stats": ("probe_n",),
    "min_eig_ratio": (),
    "probe_sequence": (),
    "quasi_interpolate": (),
    "save_basis": (),
    "save_coeffs": (),
    "save_nodes": (),
    "sphere_point": (),
    "spmv": (),
    "sym_eig_minmax": (),
    "validated_csc": (),
}

# Long options of each command line, "" for the top level, without --help.
FLAGS = {
    "": ("--seed",),
    "nodes": (),
    "nodes gen": ("--kind", "--level", "--freq", "--n", "--out"),
    "nodes stats": ("--probe", "--out"),
    "build": ("--nodes", "--m", "--M", "--n", "--radius-K", "--out"),
    "solve": ("--nodes", "--basis", "--m", "--data", "--tol", "--maxit", "--out", "--report"),
    "eval": ("--nodes", "--coeffs", "--m", "--at", "--out"),
    "gram": ("--r", "--nodes", "--cap-center", "--out"),
    "study": (),
    "study decay": ("--nodes", "--m", "--center-idx", "--out"),
    "study convergence": ("--m", "--kind", "--sizes", "--f", "--out"),
    "study table1": ("--m", "--kind", "--sizes", "--out"),
}


def keyword_options(obj):
    """Names of the parameters of obj that have a default, in signature order."""
    try:
        params = inspect.signature(obj).parameters.values()
    except ValueError:  # a class that keeps a builtin constructor, such as an exception
        return ()
    return tuple(p.name for p in params if p.default is not inspect.Parameter.empty)


def exported_options():
    """{name: keyword options} of every public callable spherelag exports, with class methods."""
    table = {}
    for name, obj in vars(spherelag).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType) or not callable(obj):
            continue
        table[name] = keyword_options(obj)
        if isinstance(obj, type):
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if not attr.startswith("_") and callable(member):
                    table[f"{name}.{attr}"] = keyword_options(member)
    return table


def test_the_option_surface_matches_the_table():
    got = exported_options()
    added = sorted(set(got) - set(OPTIONS))
    removed = sorted(set(OPTIONS) - set(got))
    changed = {k: (OPTIONS[k], got[k]) for k in set(got) & set(OPTIONS) if got[k] != OPTIONS[k]}
    assert not (added or removed or changed), (
        f"callables added {added}, removed {removed}; options changed (table, now): {changed}"
    )


def long_options(parser, command=""):
    """{command: long options} of parser and, recursively, of its subcommands."""
    table = {command: ()}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(long_options(sub, f"{command} {name}".strip()))
        else:
            table[command] += tuple(
                o for o in action.option_strings if o.startswith("--") and o != "--help"
            )
    return table


def test_the_cli_flags_match_the_table():
    assert long_options(cli.build_parser()) == FLAGS
