"""End-to-end command-line runs: every command writes traceable CSV output."""

import re

import numpy as np
import pytest

import spherelag
from spherelag import (
    KernelSpec,
    NodeSet,
    ensure_stats,
    gen_icosahedral,
    load_coeffs,
    load_nodes,
    save_nodes,
)
from spherelag import cli
from spherelag.cli import main


@pytest.fixture(scope="module")
def node_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("nodes") / "fib400.txt"
    assert main(["nodes", "gen", "--kind", "fibonacci", "--n", "400", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def basis_file(tmp_path_factory, node_file):
    path = tmp_path_factory.mktemp("basis") / "fib400.npz"
    assert main(["build", "--nodes", str(node_file), "--out", str(path)]) == 0
    return path


def body_lines(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def comment_lines(text):
    return [ln for ln in text.splitlines() if ln.startswith("#")]


def test_nodes_gen_writes_loadable_files(node_file, tmp_path):
    nodes = load_nodes(node_file)
    assert len(nodes) == 400
    ico = tmp_path / "ico.txt"
    assert main(["nodes", "gen", "--kind", "icosahedral", "--level", "1", "--out", str(ico)]) == 0
    assert len(load_nodes(ico)) == 42
    freq = tmp_path / "freq.txt"
    assert main(["nodes", "gen", "--kind", "icosahedral", "--freq", "2", "--out", str(freq)]) == 0
    assert len(load_nodes(freq)) == 42


def test_nodes_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["nodes", "gen", "--kind", "fibonacci", "--n", "150", "--out", str(a)])
    main(["nodes", "gen", "--kind", "fibonacci", "--n", "150", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_nodes_gen_argument_errors(tmp_path, capsys):
    out = str(tmp_path / "x.txt")
    args = ["nodes", "gen", "--kind", "icosahedral", "--out", out]
    # one size flag, no more and no fewer: usage errors
    assert main(args) == 2
    assert main(args + ["--level", "1", "--freq", "2"]) == 2
    assert main(args + ["--level", "1", "--n", "50"]) == 2
    assert main(["nodes", "gen", "--kind", "fibonacci", "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    # the size flag of the other kind is refused, not ignored
    assert_domain_error(args + ["--n", "50"], capsys, "--n applies to fibonacci")
    fibonacci = ["nodes", "gen", "--kind", "fibonacci", "--out", out]
    assert_domain_error(fibonacci + ["--level", "3"], capsys, "--level applies to icosahedral")
    assert_domain_error(fibonacci + ["--freq", "3"], capsys, "--freq applies to icosahedral")
    assert not (tmp_path / "x.txt").exists()


def test_nodes_gen_refuses_sets_beyond_the_cap(tmp_path, capsys):
    argv = ["nodes", "gen", "--kind", "fibonacci", "--n", "2000000", "--out", str(tmp_path / "x.txt")]
    assert_domain_error(argv, capsys, "beyond the cap 1000000")
    assert not (tmp_path / "x.txt").exists()


def test_nodes_stats_csv_shape(node_file, capsys):
    assert main(["nodes", "stats", str(node_file)]) == 0
    out = capsys.readouterr().out
    comments = comment_lines(out)
    assert comments[0].startswith("# spherelag ")
    assert comments[1].startswith("# timestamp: ")
    assert comments[2].startswith("# command: spherelag nodes stats")
    assert comments[3] == "# seed: 0"
    header, row = body_lines(out)
    assert header == "n_nodes,h,q,rho,probe_n"
    fields = row.split(",")
    assert fields[0] == "400"
    assert 0.0 < float(fields[1]) < 0.3


def test_repeat_runs_differ_only_in_timestamp(node_file, tmp_path):
    out = tmp_path / "stats.csv"
    main(["nodes", "stats", str(node_file), "--out", str(out)])
    first = out.read_text()
    main(["nodes", "stats", str(node_file), "--out", str(out)])
    second = out.read_text()
    strip = lambda text: [ln for ln in text.splitlines() if not ln.startswith("# timestamp:")]
    assert strip(first) == strip(second)


def test_build_solve_eval_pipeline(node_file, basis_file, tmp_path):
    coeffs = tmp_path / "coeffs.npz"
    report = tmp_path / "report.csv"
    code = main(
        [
            "solve",
            "--nodes", str(node_file),
            "--basis", str(basis_file),
            "--out", str(coeffs),
            "--report", str(report),
        ]
    )
    assert code == 0
    rep = report.read_text()
    assert "converged=True" in rep
    history = body_lines(rep)[1:]
    assert len(history) >= 2  # initial residual plus at least one sweep

    # evaluating at the nodes recovers the seeded right-hand side
    out = tmp_path / "at_nodes.csv"
    code = main(
        [
            "eval",
            "--nodes", str(node_file),
            "--coeffs", str(coeffs),
            "--at", str(node_file),
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = body_lines(out.read_text())[1:]
    assert len(rows) == 400
    values = np.array([float(r.split(",")[3]) for r in rows])
    expected = np.random.default_rng(0).uniform(-1.0, 1.0, size=400)
    assert np.abs(values - expected).max() < 1e-4


def test_eval_grid_layout(node_file, basis_file, tmp_path):
    coeffs = tmp_path / "coeffs.npz"
    main(["solve", "--nodes", str(node_file), "--basis", str(basis_file), "--out", str(coeffs)])
    grid = tmp_path / "grid.csv"
    code = main(
        [
            "eval",
            "--nodes", str(node_file),
            "--coeffs", str(coeffs),
            "--at", "grid:20x40",
            "--out", str(grid),
        ]
    )
    assert code == 0
    lines = body_lines(grid.read_text())
    assert lines[0] == "lon_deg,lat_deg,value"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 800
    lons = sorted({float(r[0]) for r in rows})
    lats = sorted({float(r[1]) for r in rows})
    assert len(lons) == 40 and lons[0] == 0.0 and lons[-1] == 351.0
    assert len(lats) == 20 and lats[0] == -90.0 and lats[-1] == 90.0
    assert np.isfinite([float(r[2]) for r in rows]).all()


def test_eval_rejects_malformed_grid(node_file, basis_file, tmp_path, capsys):
    coeffs = tmp_path / "coeffs.npz"
    main(["solve", "--nodes", str(node_file), "--basis", str(basis_file), "--out", str(coeffs)])
    for grid in ("grid:20by40", "grid:0x5", "grid:-1x5", "grid:5x0", "grid:1001x1000"):
        argv = ["eval", "--nodes", str(node_file), "--coeffs", str(coeffs), "--at", grid]
        assert_domain_error(argv, capsys, f"bad grid spec {grid!r}")


def solved_coeffs(tmp_path, n, m):
    """(node file, coefficient file) from a gen, build and solve of n nodes at order m."""
    nodes = tmp_path / f"fib{n}.txt"
    basis = tmp_path / f"fib{n}_m{m}.npz"
    coeffs = tmp_path / f"fib{n}_m{m}_coeffs.npz"
    assert main(["nodes", "gen", "--kind", "fibonacci", "--n", str(n), "--out", str(nodes)]) == 0
    assert main(["build", "--nodes", str(nodes), "--m", str(m), "--out", str(basis)]) == 0
    solve = ["solve", "--nodes", str(nodes), "--basis", str(basis), "--m", str(m)]
    assert main(solve + ["--out", str(coeffs)]) == 0
    return nodes, coeffs


def assert_domain_error(argv, capsys, match):
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and match in err
    assert "Traceback" not in err


def test_eval_rejects_coefficients_of_another_node_set(node_file, tmp_path, capsys):
    _, coeffs = solved_coeffs(tmp_path, 200, 2)
    argv = ["eval", "--nodes", str(node_file), "--coeffs", str(coeffs), "--at", str(node_file)]
    assert_domain_error(argv, capsys, "N=200")


def test_eval_rejects_coefficients_of_another_order(tmp_path, capsys):
    nodes, coeffs = solved_coeffs(tmp_path, 200, 3)
    argv = ["eval", "--nodes", str(nodes), "--coeffs", str(coeffs), "--m", "2", "--at", str(nodes)]
    assert_domain_error(argv, capsys, "m=3")


def test_eval_rejects_coefficients_of_a_mirrored_node_set(tmp_path, capsys):
    nodes, coeffs = solved_coeffs(tmp_path, 200, 2)
    mirrored = tmp_path / "mirrored.txt"
    save_nodes(mirrored, NodeSet(-load_nodes(nodes).points))
    argv = ["eval", "--nodes", str(mirrored), "--coeffs", str(coeffs), "--at", str(nodes)]
    assert_domain_error(argv, capsys, "different node set")


def rewrite_npz(path, **changes):
    """Rewrite the npz file at path with some arrays replaced, and those set to None dropped."""
    with np.load(path) as data:
        fields = dict(data)
    fields.update(changes)
    with open(path, "wb") as fh:
        np.savez(fh, **{key: value for key, value in fields.items() if value is not None})


@pytest.mark.parametrize(
    "kind, detail",
    [
        ("text", ""),  # such as a coefficient CSV of earlier versions
        ("truncated", ""),
        ("npy", ": it holds a single array"),
        ("basis", ": it lacks a, c"),
        ("no-binding", ": it lacks m, n_nodes"),
        ("empty-binding", ": n_nodes and m must each hold one integer"),
    ],
    ids=["text", "truncated", "npy", "basis", "no-binding", "empty-binding"],
)
def test_eval_rejects_a_file_that_is_not_coefficients(tmp_path, capsys, kind, detail):
    nodes, coeffs = solved_coeffs(tmp_path, 200, 2)
    if kind == "text":
        coeffs.write_text("# N=200 m=2\nkind,idx,value\na,0,0.5\n")
    elif kind == "truncated":
        data = coeffs.read_bytes()
        coeffs.write_bytes(data[: len(data) // 2])
    elif kind == "npy":
        with open(coeffs, "wb") as fh:
            np.save(fh, np.zeros(204))
    elif kind == "basis":
        coeffs.write_bytes((tmp_path / "fib200_m2.npz").read_bytes())
    elif kind == "no-binding":
        rewrite_npz(coeffs, m=None, n_nodes=None)
    else:
        rewrite_npz(coeffs, n_nodes=np.array([], dtype=np.int64))
    argv = ["eval", "--nodes", str(nodes), "--coeffs", str(coeffs), "--at", str(nodes)]
    assert_domain_error(argv, capsys, f"{coeffs} is not a spherelag npz coefficient file{detail}\n")


@pytest.mark.parametrize(
    "key, value, shape",
    [("a", np.zeros(199), "(199,)"), ("a", np.zeros((200, 1)), "(200, 1)"), ("c", np.zeros(9), "(9,)")],
    ids=["short-a", "column-a", "long-c"],
)
def test_eval_rejects_coefficients_of_the_wrong_length(tmp_path, capsys, key, value, shape):
    nodes, coeffs = solved_coeffs(tmp_path, 200, 2)
    rewrite_npz(coeffs, **{key: value})
    argv = ["eval", "--nodes", str(nodes), "--coeffs", str(coeffs), "--at", str(nodes)]
    expected = "(200,)" if key == "a" else "(4,)"
    assert_domain_error(argv, capsys, f"{coeffs}: {key} has shape {shape}, expected {expected}")


def test_eval_rejects_non_finite_points(tmp_path, capsys):
    nodes, coeffs = solved_coeffs(tmp_path, 200, 2)
    at = tmp_path / "at.txt"
    at.write_text("1.0 0.0 0.0\nnan 0 0\n")
    argv = ["eval", "--nodes", str(nodes), "--coeffs", str(coeffs), "--at", str(at)]
    assert_domain_error(argv, capsys, "line 2")


def test_eval_rejects_non_finite_coefficients(tmp_path, capsys):
    nodes, coeffs = solved_coeffs(tmp_path, 200, 2)
    with np.load(coeffs) as data:
        good = dict(data)
    argv = ["eval", "--nodes", str(nodes), "--coeffs", str(coeffs), "--at", str(nodes)]
    for key, at, value in (("a", 5, np.nan), ("c", 3, np.inf)):
        bad = good[key].copy()
        bad[at] = value
        rewrite_npz(coeffs, **{**good, key: bad})
        assert_domain_error(argv, capsys, f"{coeffs}: {key} holds values that are not finite numbers")


def test_solve_rejects_non_finite_data(node_file, basis_file, tmp_path, capsys):
    data = tmp_path / "data.txt"
    values = np.ones(400)
    values[9] = np.nan
    np.savetxt(data, values)
    argv = ["solve", "--nodes", str(node_file), "--basis", str(basis_file), "--data", str(data)]
    assert_domain_error(argv, capsys, "value 10 is not finite")


def solved_arrays(node_file, coeffs):
    """The (a, c) a solve of the fib(400) node file wrote to coeffs."""
    return load_coeffs(coeffs, load_nodes(node_file), KernelSpec(2))


def test_solve_seed_controls_the_data(node_file, basis_file, tmp_path):
    solve = ["solve", "--nodes", str(node_file), "--basis", str(basis_file), "--out"]
    first, again, other = tmp_path / "7.npz", tmp_path / "7again.npz", tmp_path / "8.npz"
    for seed, out in (("7", first), ("7", again), ("8", other)):
        assert main(["--seed", seed, *solve, str(out)]) == 0
    assert again.read_bytes() == first.read_bytes()
    a7, c7 = solved_arrays(node_file, first)
    a8, c8 = solved_arrays(node_file, other)
    assert not np.array_equal(a8, a7) and not np.array_equal(c8, c7)


@pytest.mark.parametrize("command", ["solve", "nodes stats"])
def test_a_negative_seed_is_a_domain_error(node_file, basis_file, command, capsys):
    args = {
        "solve": ["solve", "--nodes", str(node_file), "--basis", str(basis_file)],
        "nodes stats": ["nodes", "stats", str(node_file)],
    }[command]
    assert_domain_error(["--seed", "-1", *args], capsys, "--seed must be an integer >= 0, got -1")


def test_solve_accepts_a_data_file(node_file, basis_file, tmp_path):
    data = tmp_path / "data.txt"
    np.savetxt(data, np.exp(load_nodes(node_file).points[:, 2]))
    report = tmp_path / "rep.csv"
    code = main(
        [
            "solve",
            "--nodes", str(node_file),
            "--basis", str(basis_file),
            "--data", str(data),
            "--report", str(report),
        ]
    )
    assert code == 0
    assert "converged=True" in report.read_text()


def test_solve_rejects_wrong_length_data(node_file, basis_file, tmp_path, capsys):
    data = tmp_path / "data.txt"
    argv = ["solve", "--nodes", str(node_file), "--basis", str(basis_file), "--data", str(data)]
    for values, shape in ((np.ones(17), "(17,)"), (np.ones((400, 2)), "(400, 2)")):
        np.savetxt(data, values)
        assert_domain_error(argv, capsys, f"expected 400 values, one per line, found shape {shape}")


def test_solve_nonconvergence_still_reports(node_file, basis_file, tmp_path, capsys):
    report = tmp_path / "rep.csv"
    code = main(
        [
            "solve",
            "--nodes", str(node_file),
            "--basis", str(basis_file),
            "--tol", "1e-15",
            "--maxit", "1",
            "--report", str(report),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert "converged=False" in report.read_text()


@pytest.mark.parametrize("maxit", ["-3", "0"])
def test_solve_rejects_maxit_below_one(node_file, basis_file, capsys, maxit):
    argv = ["solve", "--nodes", str(node_file), "--basis", str(basis_file), "--maxit", maxit]
    assert_domain_error(argv, capsys, f"maxit must be an integer >= 1, got {maxit}")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_solve_rejects_a_tol_that_is_not_finite_and_positive(node_file, basis_file, capsys, tol):
    argv = ["solve", "--nodes", str(node_file), "--basis", str(basis_file), "--tol", tol]
    assert_domain_error(argv, capsys, f"tol must be a real number in (0, inf), got {float(tol)}")


def test_solve_maxit_beyond_n_matches_the_default(node_file, basis_file, tmp_path):
    # Krylov storage follows the iterations taken, so a huge maxit costs nothing
    solve = ["solve", "--nodes", str(node_file), "--basis", str(basis_file)]
    default, huge = tmp_path / "default.npz", tmp_path / "huge.npz"
    assert main(solve + ["--out", str(default)]) == 0
    assert main(solve + ["--maxit", str(10**9), "--out", str(huge)]) == 0
    for got, want in zip(solved_arrays(node_file, huge), solved_arrays(node_file, default)):
        assert np.array_equal(got, want)


def test_solve_default_maxit_on_fewer_nodes_than_maxit(tmp_path):
    # the default --maxit (200) exceeds N here
    nodes, basis = tmp_path / "fib150.txt", tmp_path / "fib150.npz"
    assert main(["nodes", "gen", "--kind", "fibonacci", "--n", "150", "--out", str(nodes)]) == 0
    assert main(["build", "--nodes", str(nodes), "--out", str(basis)]) == 0
    assert main(["solve", "--nodes", str(nodes), "--basis", str(basis)]) == 0


def test_build_footprint_flags_are_exclusive(node_file, tmp_path, capsys):
    out = tmp_path / "b.npz"
    for other in (["--M", "8"], ["--radius-K", "2"]):
        code = main(["build", "--nodes", str(node_file), "--n", "40", *other, "--out", str(out)])
        assert code == 2  # a usage error, like any other flag misuse
        assert "not allowed with argument --n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--radius-K", "nan"), ("--M", "inf"), ("--M", "nan"), ("--M", "-1"), ("--n", "0"), ("--n", "-5")],
)
def test_build_rejects_bad_footprint_values(node_file, tmp_path, capsys, flag, value):
    out = tmp_path / "b.npz"
    argv = ["build", "--nodes", str(node_file), flag, value, "--out", str(out)]
    if flag == "--n":
        assert_domain_error(argv, capsys, f"fixed_n must be an integer >= 1, got {value}")
    else:
        message = f"footprint M must be a real number in (0, inf), got {float(value)}"
        assert_domain_error(argv, capsys, message)
    assert not out.exists()


def test_build_writes_exactly_the_out_path(node_file, tmp_path):
    basis = tmp_path / "basis.bin"
    assert main(["build", "--nodes", str(node_file), "--out", str(basis)]) == 0
    assert main(["solve", "--nodes", str(node_file), "--basis", str(basis)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["basis.bin"]


@pytest.mark.parametrize(
    "kind, detail",
    [
        ("text", ""),  # a node file, or a basis in the csv format of earlier versions
        ("other-arrays", ": it lacks colptr, rowidx, values, C, m, n_nodes"),
        ("truncated", ""),
        ("npy", ": it holds a single array"),
    ],
)
def test_solve_rejects_a_file_that_is_not_a_basis(node_file, basis_file, tmp_path, capsys, kind, detail):
    path = tmp_path / "other.npz"
    if kind == "text":
        path.write_bytes(node_file.read_bytes())
    elif kind == "truncated":
        data = basis_file.read_bytes()
        path.write_bytes(data[: len(data) // 2])
    else:
        with open(path, "wb") as fh:
            if kind == "npy":
                np.save(fh, np.arange(3))
            else:
                np.savez(fh, x=np.arange(3))
    argv = ["solve", "--nodes", str(node_file), "--basis", str(path)]
    assert_domain_error(argv, capsys, f"{path} is not a spherelag npz basis file{detail}\n")


def test_gram_analytic_table(capsys):
    assert main(["gram", "--r", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "lambda_min=" in out
    rows = body_lines(out)
    assert rows[0] == "i,j,G"
    assert len(rows) == 17
    g00 = float(rows[1].split(",")[2])
    assert g00 == pytest.approx(0.5 * (1.0 - np.cos(0.3)), rel=1e-12)


def test_gram_discrete_comparison(tmp_path, capsys):
    nodes = tmp_path / "fib5000.txt"
    main(["nodes", "gen", "--kind", "fibonacci", "--n", "5000", "--out", str(nodes)])
    code = main(["gram", "--r", "0.5", "--nodes", str(nodes), "--cap-center", "0,90"])
    assert code == 0
    out = capsys.readouterr().out
    assert "satisfied=True" in out
    assert "within_hypothesis=True" in out


def test_domain_errors_catch_every_exported_error():
    # an error type outside DOMAIN_ERRORS would reach the user as a traceback
    errors = [e for e in vars(spherelag).values() if isinstance(e, type) and issubclass(e, Exception)]
    assert len(errors) >= 7  # the seven of today: the scan found them
    assert [e.__name__ for e in errors if not issubclass(e, cli.DOMAIN_ERRORS)] == []


def test_gram_domain_error(capsys):
    assert main(["gram", "--r", "-1"]) == 1
    assert "cap radius must be a real number in (0, pi], got -1.0" in capsys.readouterr().err


def test_gram_rejects_a_non_finite_cap_centre(node_file, capsys):
    assert main(["gram", "--r", "0.5", "--nodes", str(node_file), "--cap-center", "nan,0"]) == 1
    err = capsys.readouterr().err
    assert "--cap-center nan,0" in err and "non-finite" in err


def gram_argv(node_file, centre, nodes):
    """gram at r = 0.5 with --cap-center centre, with or without the --nodes comparison."""
    return ["gram", "--r", "0.5", "--cap-center", centre] + (
        ["--nodes", str(node_file)] if nodes else []
    )


@pytest.mark.parametrize(
    "centre, nodes",
    [
        pytest.param("1,2,3", True, id="1,2,3"),
        pytest.param("a,b", True, id="a,b"),
        pytest.param("5", True, id="5"),
        pytest.param("abc", False, id="abc-without-nodes"),
    ],
)
def test_gram_rejects_a_malformed_cap_centre(node_file, capsys, centre, nodes):
    argv = gram_argv(node_file, centre, nodes)
    assert_domain_error(argv, capsys, f"--cap-center {centre}: expected lon,lat degrees")


@pytest.mark.parametrize(
    "centre, nodes",
    [
        pytest.param("0,95", True, id="0,95"),
        pytest.param("0,-90.5", True, id="0,-90.5"),
        pytest.param("0,95", False, id="0,95-without-nodes"),
    ],
)
def test_gram_rejects_a_cap_centre_beyond_a_pole(node_file, capsys, centre, nodes):
    argv = gram_argv(node_file, centre, nodes)
    assert_domain_error(argv, capsys, f"--cap-center {centre}: latitude must lie in [-90, 90]")


def test_study_decay(node_file, tmp_path):
    out = tmp_path / "decay.csv"
    assert main(["study", "decay", "--nodes", str(node_file), "--out", str(out)]) == 0
    text = out.read_text()
    assert "nu_function=" in text
    assert "# iterations=" in text and " final_check=" in text
    kinds = [ln.split(",")[0] for ln in body_lines(text)[1:]]
    assert set(kinds) == {"function", "coefficient"}
    # each fit reports how good it was and how many samples its window kept
    fields = dict(re.findall(r"(\w+)=(\S+)", "\n".join(comment_lines(text))))
    for kind in ("function", "coefficient"):
        assert 0.9 < float(fields[f"r2_{kind}"]) <= 1.0
        assert 10 <= int(fields[f"n_used_{kind}"]) <= kinds.count(kind)


@pytest.mark.parametrize("center_idx", ["99999", "-1"])
def test_study_decay_rejects_a_center_outside_the_set(node_file, capsys, center_idx):
    argv = ["study", "decay", "--nodes", str(node_file), "--center-idx", center_idx]
    assert_domain_error(argv, capsys, f"center_idx must be an integer in 0..399, got {center_idx}")


def test_study_convergence(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(["study", "convergence", "--sizes", "100,200", "--f", "linear", "--out", str(out)])
    assert code == 0
    rows = body_lines(out.read_text())
    assert rows[0] == (
        "n_nodes,h,err_interp,err_quasi,order_interp,order_quasi,iterations,final_check"
    )
    assert len(rows) == 3
    assert float(rows[1].split(",")[2]) < 1e-8  # degree-1 field is reproduced
    assert float(rows[1].split(",")[7]) < 1e-9


def test_study_convergence_names_the_size_whose_solve_fails(capsys):
    # the default footprint does not precondition m = 4, so GMRES stalls
    argv = ["study", "convergence", "--m", "4", "--kind", "icosahedral", "--sizes", "642"]
    assert_domain_error(argv, capsys, "study solve at N = 642, m = 4: no convergence")


def test_study_table_summary(node_file, tmp_path):
    out = tmp_path / "summary.csv"
    assert main(["study", "table1", "--sizes", "400", "--out", str(out)]) == 0
    rows = body_lines(out.read_text())
    assert rows[0] == "n_nodes,h,rho,nu_L,C_L,nu_c,C_c,iterations,final_check"
    fields = rows[1].split(",")
    assert fields[0] == "400"
    assert float(fields[3]) > 0.5 and float(fields[5]) > 0.5


def test_study_table_writes_the_icosahedral_size_it_ran(tmp_path):
    # 400 is rounded to the nearest family member, level 3 with 642 nodes
    out = tmp_path / "summary.csv"
    argv = ["study", "table1", "--kind", "icosahedral", "--sizes", "400", "--out", str(out)]
    assert main(argv) == 0
    fields = body_lines(out.read_text())[1].split(",")
    assert fields[0] == "642"
    assert float(fields[1]) == ensure_stats(gen_icosahedral(3)).h


@pytest.mark.parametrize("size", ["0", "2", "5", "11"])
def test_study_rejects_an_icosahedral_size_below_12(capsys, size):
    argv = ["study", "table1", "--kind", "icosahedral", "--sizes", size]
    assert_domain_error(argv, capsys, f"icosahedral sizes start at 12 nodes (level 0), got {size}")


@pytest.mark.parametrize(
    "argv",
    [
        ["study", "decay"],  # --nodes is required
        ["study", "convergence", "--nodes", "n.txt"],
        ["study", "table1", "--f", "expz"],
        ["study", "decay", "--nodes", "n.txt", "--sizes", "400"],
    ],
    ids=["decay-no-nodes", "convergence-nodes", "table1-f", "decay-sizes"],
)
def test_study_commands_take_only_their_own_flags(capsys, argv):
    assert main(argv) == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["convergence", "table1"])
@pytest.mark.parametrize(
    "kind, sizes, first, second, n_nodes",
    [
        ("icosahedral", "12,13", 12, 13, 12),
        ("icosahedral", "100,160", 100, 160, 162),
        ("icosahedral", "642,400", 642, 400, 642),
        ("fibonacci", "200,300,200", 200, 200, 200),
    ],
)
def test_study_rejects_sizes_that_give_one_node_set(
    monkeypatch, capsys, command, kind, sizes, first, second, n_nodes
):
    def no_solve(*args, **kwargs):
        raise AssertionError("a study solved before it checked its sizes")

    monkeypatch.setattr(cli, "convergence_study", no_solve)
    monkeypatch.setattr(cli, "decay_study", no_solve)
    argv = ["study", command, "--kind", kind, "--sizes", sizes]
    match = f"sizes {first} and {second} both give the {n_nodes}-node set"
    assert_domain_error(argv, capsys, match)


@pytest.mark.parametrize("command", ["convergence", "table1"])
@pytest.mark.parametrize("sizes", ["400,abc", "", "100,,200"])
def test_study_rejects_sizes_that_are_not_integers(capsys, command, sizes):
    assert main(["study", command, "--sizes", sizes]) == 2
    expected = f"expected comma-separated integers, such as 400,900,1600, got {sizes!r}"
    assert f"argument --sizes: {expected}" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    assert main(["nodes", "gen", "--kind", "fibonacci", "--n", "10"]) == 2  # missing --out
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_file_is_a_domain_error(tmp_path, capsys):
    assert main(["nodes", "stats", str(tmp_path / "absent.txt")]) == 1
    assert "error:" in capsys.readouterr().err
