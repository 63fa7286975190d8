import math
import warnings

import numpy as np
import pytest

from halflearn import datagen
from halflearn.core import LabeledDataset, RngSeed, project_to_sphere
from halflearn.datagen import (
    MarginalSpec,
    NoiseSpec,
    PlanarMixtureParams,
    apply_noise,
    brute_force_opt_2d,
    dataset_to_csv,
    exp_tilt_variance,
    read_dataset_csv,
    sample_marginal,
    write_dataset_csv,
)
from halflearn.errors import WrongDimensionError
from halflearn.pipeline import empirical_error
from halflearn.testers import TesterConfig, moment_tester, standard_gaussian_target


def test_gaussian_moments_match_clt_bounds():
    ds = sample_marginal(MarginalSpec("standard_gaussian", 4), 100_000, RngSeed(1))
    means = ds.points.mean(axis=0)
    variances = ds.points.var(axis=0)
    assert np.all(np.abs(means) < 0.02)
    assert np.all(np.abs(variances - 1.0) < 0.03)


def test_exp_tilt_zero_equals_gaussian():
    a = sample_marginal(MarginalSpec("standard_gaussian", 3), 5000, RngSeed(7))
    b = sample_marginal(MarginalSpec("slc_exp_tilt", 3, lam=0.0), 5000, RngSeed(7))
    assert np.array_equal(a.points, b.points)


def test_exp_tilt_variance_closed_form():
    # quadrature oracle for the Mills-ratio formula
    from scipy.integrate import quad

    for lam in (0.0, 0.3, 1.0, 2.5):
        raw = lambda z: math.exp(-0.5 * z * z - lam * abs(z))
        norm = 2 * quad(raw, 0, np.inf)[0]
        second = 2 * quad(lambda z: z * z * raw(z), 0, np.inf)[0] / norm
        assert exp_tilt_variance(lam) == pytest.approx(second, rel=1e-10)


def test_exp_tilt_isotropized():
    ds = sample_marginal(MarginalSpec("slc_exp_tilt", 3, lam=1.0), 200_000, RngSeed(8))
    assert np.all(np.abs(ds.points.var(axis=0) - 1.0) < 0.02)


@pytest.mark.slow
def test_exp_tilt_passes_degree2_moment_tester():
    target = standard_gaussian_target()
    cfg = TesterConfig()
    accepted = 0
    for s in range(20):
        ds = sample_marginal(MarginalSpec("slc_exp_tilt", 4, lam=0.8), 100_000, RngSeed(300 + s))
        accepted += moment_tester(ds, 2, cfg, target).accepted
    assert accepted >= 18


def test_aniso_scales():
    ds = sample_marginal(MarginalSpec("aniso_gaussian", 4, scales=(2.0, 1.0, 1.0, 1.0)), 100_000, RngSeed(2))
    assert abs(ds.points[:, 0].var() - 4.0) < 0.1


def test_student_t_unit_variance_heavy_tail():
    ds = sample_marginal(MarginalSpec("student_t", 3, dof=5.0), 200_000, RngSeed(3))
    assert np.all(np.abs(ds.points.var(axis=0) - 1.0) < 0.05)
    # dof=5 has excess kurtosis 6/(dof-4)=6; well above the Gaussian's
    fourth = (ds.points[:, 0] ** 4).mean()
    assert fourth > 5.0


def test_planar_mixture_shape():
    mix = PlanarMixtureParams(weights=(0.5, 0.5), means=((2.0, 0.0), (-2.0, 0.0)), scales=(0.5, 0.5))
    ds = sample_marginal(MarginalSpec("planar_mixture", 4, mixture=mix), 20_000, RngSeed(4))
    assert ds.d == 4
    # bimodal first coordinate: large second moment
    assert ds.points[:, 0].var() > 3.0
    assert abs(ds.points[:, 2].var() - 1.0) < 0.05


def test_noise_zero_rates_are_clean():
    w = project_to_sphere([1.0, 0, 0])
    X = sample_marginal(MarginalSpec("standard_gaussian", 3), 5000, RngSeed(5))
    clean = np.where(X.points @ w.coords >= 0, 1.0, -1.0)
    for spec in (NoiseSpec("massart_constant", w, eta=0.0), NoiseSpec("agnostic_random", w, opt=0.0)):
        ds = apply_noise(X, spec, RngSeed(6))
        assert np.array_equal(ds.labels, clean)


def test_massart_flip_fraction():
    w = project_to_sphere([1.0, 0, 0])
    X = sample_marginal(MarginalSpec("standard_gaussian", 3), 100_000, RngSeed(9))
    ds = apply_noise(X, NoiseSpec("massart_constant", w, eta=0.3), RngSeed(10))
    clean = np.where(X.points @ w.coords >= 0, 1.0, -1.0)
    assert abs(np.mean(ds.labels != clean) - 0.3) < 0.01


def test_massart_same_seed_flips_same_points():
    w = project_to_sphere([1.0, 0, 0])
    X = sample_marginal(MarginalSpec("standard_gaussian", 3), 10_000, RngSeed(11))
    a = apply_noise(X, NoiseSpec("massart_constant", w, eta=0.25), RngSeed(12))
    b = apply_noise(X, NoiseSpec("massart_constant", w, eta=0.25), RngSeed(12))
    assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize(
    "spec_kw",
    [dict(kind="massart_constant", eta=0.3), dict(kind="massart_boundary", eta=0.3, width=0.5)],
)
def test_massart_bucketed_flip_rate_bounded(spec_kw):
    w = project_to_sphere([1.0, 0, 0])
    X = sample_marginal(MarginalSpec("standard_gaussian", 3), 100_000, RngSeed(13))
    ds = apply_noise(X, NoiseSpec(planted=w, **spec_kw), RngSeed(14))
    clean = np.where(X.points @ w.coords >= 0, 1.0, -1.0)
    flipped = ds.labels != clean
    margins = np.abs(X.points @ w.coords)
    edges = np.quantile(margins, np.linspace(0, 1, 11))
    for lo, hi in zip(edges[:-1], edges[1:]):
        bucket = (margins >= lo) & (margins <= hi)
        m = int(bucket.sum())
        if m == 0:
            continue
        rate = float(flipped[bucket].mean())
        assert rate <= 0.3 + 3.0 * math.sqrt(0.3 * 0.7 / m)


def test_agnostic_boundary_flips_smallest_margins():
    w = project_to_sphere([1.0, 0, 0])
    X = sample_marginal(MarginalSpec("standard_gaussian", 3), 10_000, RngSeed(15))
    ds = apply_noise(X, NoiseSpec("agnostic_boundary", w, opt=0.05), RngSeed(16))
    clean = np.where(X.points @ w.coords >= 0, 1.0, -1.0)
    flipped = np.flatnonzero(ds.labels != clean)
    m = int(0.05 * 10_000)
    assert len(flipped) == m
    margins = np.abs(X.points @ w.coords)
    cutoff = np.sort(margins)[m]  # the (m+1)-smallest margin bounds all flips
    assert np.all(margins[flipped] <= cutoff)


def test_agnostic_random_exact_count():
    w = project_to_sphere([1.0, 0, 0])
    X = sample_marginal(MarginalSpec("standard_gaussian", 3), 9_999, RngSeed(17))
    ds = apply_noise(X, NoiseSpec("agnostic_random", w, opt=0.1), RngSeed(18))
    clean = np.where(X.points @ w.coords >= 0, 1.0, -1.0)
    assert int(np.sum(ds.labels != clean)) == int(0.1 * 9_999)


# ---------------------------------------------------------------------------
# exact 2-D sweep


def _grid_oracle_error(S, n_angles=100_000):
    phis = np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False)
    W = np.column_stack([np.cos(phis), np.sin(phis)])
    preds = np.where(W @ S.points.T >= 0, 1.0, -1.0)
    errs = np.mean(preds != S.labels, axis=1)
    return float(errs.min())


def test_brute_force_noiseless_planted():
    w = project_to_sphere([0.6, -0.8])
    X = sample_marginal(MarginalSpec("standard_gaussian", 2), 2000, RngSeed(19))
    S = apply_noise(X, NoiseSpec("massart_constant", w, eta=0.0), RngSeed(20))
    opt, w_opt = brute_force_opt_2d(S)
    assert opt == 0.0
    assert empirical_error(S, w_opt) == 0.0


def test_brute_force_symmetric_all_positive():
    rng = np.random.default_rng(21)
    half = rng.standard_normal((100, 2))
    X = np.vstack([half, -half])
    S = type(sample_marginal(MarginalSpec("standard_gaussian", 2), 1, RngSeed(0)))(X, np.ones(200))
    opt, _ = brute_force_opt_2d(S)
    assert opt == 0.5


def test_brute_force_matches_grid_oracle():
    for s in range(5):
        root = RngSeed(400 + s)
        w = project_to_sphere(root.generator(1).standard_normal(2))
        X = sample_marginal(MarginalSpec("standard_gaussian", 2), 200, root.child(0))
        S = apply_noise(X, NoiseSpec("massart_constant", w, eta=0.2), root.child(1))
        opt, w_opt = brute_force_opt_2d(S)
        grid = _grid_oracle_error(S)
        assert abs(opt - grid) <= 1.0 / S.n
        assert opt <= grid + 1e-12  # sweep is exact, grid can only match or exceed
        assert empirical_error(S, w_opt) == pytest.approx(opt, abs=1e-15)


def test_brute_force_global_minimality():
    root = RngSeed(22)
    w = project_to_sphere([0.0, 1.0])
    X = sample_marginal(MarginalSpec("standard_gaussian", 2), 500, root.child(0))
    S = apply_noise(X, NoiseSpec("massart_constant", w, eta=0.3), root.child(1))
    opt, _ = brute_force_opt_2d(S)
    rng = root.generator(9)
    for _ in range(50):
        cand = project_to_sphere(rng.standard_normal(2))
        assert opt <= empirical_error(S, cand) + 1e-15


def test_brute_force_wrong_dimension():
    ds = sample_marginal(MarginalSpec("standard_gaussian", 3), 10, RngSeed(23))
    with pytest.raises(WrongDimensionError):
        brute_force_opt_2d(ds)


def test_csv_round_trip(tmp_path):
    w = project_to_sphere([1.0, 0, 0, 0])
    X = sample_marginal(MarginalSpec("standard_gaussian", 4), 512, RngSeed(24))
    S = apply_noise(X, NoiseSpec("massart_constant", w, eta=0.2), RngSeed(25))
    path = str(tmp_path / "ds.csv")
    write_dataset_csv(S, path)
    back = read_dataset_csv(path)
    assert np.array_equal(back.points, S.points)
    assert np.array_equal(back.labels, S.labels)
    text = dataset_to_csv(S)
    assert text.splitlines()[0] == "y,x1,x2,x3,x4"


def _reference_csv(S) -> str:
    """The per-value formatter the block writer replaced."""
    rows = ["y," + ",".join(f"x{i + 1}" for i in range(S.d))]
    for yi, xi in zip(S.labels, S.points):
        rows.append(f"{int(yi)}," + ",".join(f"{v:.17g}" for v in xi))
    return "\n".join(rows) + "\n"


_EDGE_VALUES = (-0.0, 5e-324, 1e-300, -1e-300, 1e308, np.nextafter(1.0, 2.0), 1.0, 123456789.0)


@pytest.mark.parametrize(
    "n",
    [1, datagen._CSV_BLOCK_ROWS - 1, datagen._CSV_BLOCK_ROWS, datagen._CSV_BLOCK_ROWS + 1,
     3 * datagen._CSV_BLOCK_ROWS + 17],
)
def test_block_writer_matches_reference_formatter(tmp_path, monkeypatch, n):
    rng = np.random.default_rng(n)
    d = 3
    # wide magnitudes, then the edge values spread over the first rows
    X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-20, 20, (n, d))
    X.flat[: len(_EDGE_VALUES)] = _EDGE_VALUES[: X.size]
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    y[0] = -1.0
    S = LabeledDataset(X, y)
    text = dataset_to_csv(S)
    ref = _reference_csv(S)
    if text != ref:  # name the first differing line; a diff of megabytes takes minutes
        got, want = text.splitlines(True), ref.splitlines(True)
        first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"line {first}: {got[first:first + 1]!r} != {want[first:first + 1]!r}")
    path = tmp_path / "ds.csv"
    write_dataset_csv(S, str(path))
    assert path.read_bytes() == text.encode("utf-8"), "file differs from dataset_to_csv"
    hit = _read_without_parsing(path, monkeypatch)
    (tmp_path / "ds.csv.twin").unlink()  # what follows reads the text
    back = read_dataset_csv(str(path))
    assert np.array_equal(back.points, S.points)
    assert np.array_equal(np.signbit(back.points), np.signbit(S.points))  # -0.0 stays -0.0
    assert np.array_equal(back.labels, S.labels)
    _assert_same_bits(hit, back)


def _read_without_parsing(path, monkeypatch):
    """read_dataset_csv(path) with the text parser disabled: only a twin hit succeeds."""

    def no_parse(*args, **kwargs):
        raise AssertionError("parsed the CSV text although its twin matches")

    with monkeypatch.context() as m:
        m.setattr(np, "loadtxt", no_parse)
        return read_dataset_csv(str(path))


def _assert_same_bits(a, b):
    for x, y in ((a.points, b.points), (a.labels, b.labels)):
        assert x.shape == y.shape
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))  # signs of zero included


def _dataset_with_twin(tmp_path):
    S = sample_marginal(MarginalSpec("standard_gaussian", 3), 50, RngSeed(26))
    path = tmp_path / "ds.csv"
    write_dataset_csv(S, str(path))
    return S, path


def _forge_twin(path, table, magic=datagen._TWIN_MAGIC):
    """Write a twin for path that holds ``table`` under the digest of path's bytes."""
    import hashlib
    import io

    buf = io.BytesIO()
    np.save(buf, table, allow_pickle=False)
    digest = hashlib.sha256(path.read_bytes()).digest()
    (path.parent / (path.name + ".twin")).write_bytes(magic + digest + buf.getvalue())


def test_a_matching_twin_is_read_in_place_of_the_text(tmp_path, monkeypatch):
    # the control for the fall-back tests below: a forged twin with a matching
    # digest is trusted, so a twin that is not must show as the parsed values
    S, path = _dataset_with_twin(tmp_path)
    _forge_twin(path, np.column_stack([S.labels, S.points + 1.0]))
    got = _read_without_parsing(path, monkeypatch)
    assert np.array_equal(got.points, S.points + 1.0)


def _twin_with_wrong_magic(path, S):
    _forge_twin(path, np.column_stack([S.labels, S.points + 1.0]), magic=b"NOTATWIN")


def _twin_with_wrong_width(path, S):
    _forge_twin(path, np.column_stack([S.labels, S.points + 1.0, S.points[:, :1]]))


def _truncated_twin(path, S):
    twin = path.parent / (path.name + ".twin")
    twin.write_bytes(twin.read_bytes()[:-8])


def _csv_with_one_digit_changed(path, S):
    lines = path.read_text(encoding="utf-8").splitlines(True)
    label, first, rest = lines[1].split(",", 2)
    digit = next(i for i, c in enumerate(first) if c.isdigit() and c != "0")
    first = first[:digit] + ("1" if first[digit] != "1" else "2") + first[digit + 1 :]
    lines[1] = ",".join((label, first, rest))
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("spoil", [_csv_with_one_digit_changed, _truncated_twin, _twin_with_wrong_magic,
                                   _twin_with_wrong_width])
def test_a_twin_that_does_not_match_falls_back_to_the_parse(tmp_path, spoil):
    S, path = _dataset_with_twin(tmp_path)
    spoil(path, S)
    got = read_dataset_csv(str(path))
    twin = path.parent / (path.name + ".twin")
    twin.unlink()
    _assert_same_bits(got, read_dataset_csv(str(path)))
    if spoil is _csv_with_one_digit_changed:
        assert not np.array_equal(got.points, S.points)
    else:
        _assert_same_bits(got, S)


@pytest.mark.parametrize("text, match", [
    ("y,x1,x2,label\n1,0.5,0.25,0.125\n", r"stale.csv: not a dataset CSV \(header must be 'y,x1,x2,x3'\)"),
    ("x1,y\n0.5,1\n", r"stale.csv: not a dataset CSV \(header must be 'y,x1'\)"),
    ("y,x1,x2\n1,0.5,0.25,0.125\n", "stale.csv: rows have 4 columns but the header names 3"),
    ("y,x1,x2\n", "stale.csv: no data rows"),
], ids=["extra_column_name", "label_not_first", "wide_rows", "no_rows"])
def test_read_errors_hold_beside_a_stale_twin(tmp_path, text, match):
    S = sample_marginal(MarginalSpec("standard_gaussian", 2), 20, RngSeed(27))
    path = tmp_path / "stale.csv"
    write_dataset_csv(S, str(path))
    path.write_text(text, encoding="utf-8")  # edited after the twin was written
    assert (tmp_path / "stale.csv.twin").exists()
    with pytest.raises(ValueError, match=match):
        read_dataset_csv(str(path))


@pytest.mark.parametrize("rows", ["1,0.5,0.25,0.125\n-1,1,2,3\n", "1,0.5\n-1,1\n"])
def test_read_rejects_rows_wider_or_narrower_than_header(tmp_path, rows):
    path = tmp_path / "bad.csv"
    path.write_text("y,x1,x2\n" + rows, encoding="utf-8")
    with pytest.raises(ValueError, match="bad.csv: rows have"):
        read_dataset_csv(str(path))


def test_read_rejects_header_only_file_without_warning(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("y,x1,x2\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty.csv: no data rows"):
            read_dataset_csv(str(path))


def test_spec_validation():
    with pytest.raises(ValueError):
        MarginalSpec("student_t", 3, dof=2.0)
    with pytest.raises(ValueError):
        MarginalSpec("aniso_gaussian", 3, scales=(1.0, 2.0))
    with pytest.raises(ValueError):
        NoiseSpec("massart_constant", project_to_sphere([1, 0]), eta=0.5)
    with pytest.raises(ValueError):
        NoiseSpec("agnostic_random", project_to_sphere([1, 0]), opt=0.6)
