"""Sparse local Lagrange bases for surface-spline interpolation on the sphere."""

from .geom import (
    DuplicateNodesError,
    MeshStats,
    NodeFileError,
    NodeSet,
    cap_area,
    ensure_stats,
    gen_fibonacci,
    gen_icosahedral,
    gen_icosahedral_freq,
    geodesic_distance,
    load_nodes,
    mesh_stats,
    probe_sequence,
    save_nodes,
    sphere_point,
)
from .neighbors import ball, build_index, knn, knn_all
from .kernel import (
    HarmonicBasis,
    KernelSpec,
    assemble_saddle,
    eval_kernel,
    evaluate_expansion,
    harmonic_basis_for,
    kernel_matrix,
    kernel_sum,
)
from .solver import (
    GmresNotConvergedError,
    GmresReport,
    NonUnisolventError,
    SaddleSystem,
    SingularSystemError,
    factor_solve,
    gmres,
    spmv,
    sym_eig_minmax,
    validated_csc,
)
from .locallag import (
    FootprintRule,
    KernelMatvec,
    LocalBasis,
    QuasiInterpolant,
    StencilFailureError,
    build_local_basis,
    eval_local_function,
    interpolate_preconditioned,
    load_basis,
    load_coeffs,
    quasi_interpolate,
    save_basis,
    save_coeffs,
)
from .gramstudy import (
    CapGramReport,
    cap_gram_analytic,
    cap_gram_compare,
    min_eig_ratio,
)
from .diagnostics import (
    ConvergenceRow,
    DecayFit,
    DecayStudy,
    InsufficientSamplesError,
    convergence_study,
    decay_study,
    fit_decay,
)

__version__ = "0.1.0"
