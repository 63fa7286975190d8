import decimal
import io
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from halflearn import csvtext, datagen
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


# ---------------------------------------------------------------------------
# the exact '%.17g' kernel, value by value against Python's formatter


def _assert_prints_like_g17(values):
    """csvtext.format_rows of a one-column block gives '%.17g' % v for each v."""
    v = np.asarray(values, dtype=np.float64).ravel()
    got = csvtext.format_rows(v[:, None]).decode("ascii").split("\n")
    assert len(got) == len(v) + 1 and got[-1] == ""
    bad = [(x, g, "%.17g" % x) for x, g in zip(v, got) if g != "%.17g" % x]
    assert not bad, f"{len(bad)} of {len(v)} differ, first (value, kernel, printf): {bad[:3]}"


def _neighbours(x, ulps):
    """x and the ulps doubles on each side of it."""
    out, lo, hi = [x], x, x
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_kernel_matches_printf_on_floats(values):
    _assert_prints_like_g17(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_kernel_matches_printf_on_bit_patterns(patterns):
    v = np.array(patterns, dtype=np.uint64).view(np.float64)
    assume(np.isfinite(v).any())
    _assert_prints_like_g17(v[np.isfinite(v)])


def test_kernel_matches_printf_around_powers_of_ten():
    # the double nearest 1e-07 lies below it and keeps 17 digits: a decimal
    # exponent checked on the rounded digits instead of the truncated ones
    # would print it as 1e-07
    assert "%.17g" % 1e-7 == "9.9999999999999995e-08"
    values = [u for p in range(-30, 31) for u in _neighbours(10.0**p, 2)]
    _assert_prints_like_g17(values + [-u for u in values])


def _exact_ties(per_exponent, seed):
    """Doubles m / 2**j, m odd, with 18 significant digits, the last a 5: each
    lies exactly halfway between two 17-digit decimals."""
    rng = random.Random(seed)
    ties = []
    for X in range(-8, 16):  # below 1e-8 no odd m / 2**(17 - X) reaches 10**X; from 1e16 m needs > 53 bits
        j = 17 - X
        lo = math.ceil(Fraction(10) ** X * 2**j)
        hi = min(math.ceil(Fraction(10) ** (X + 1) * 2**j), 2**53)
        ties += [(rng.randrange(lo, hi - 1) | 1) / 2**j for _ in range(per_exponent)]
    return ties


def test_kernel_rounds_exact_ties_to_even():
    ties = _exact_ties(40, seed=17)
    for x in ties:
        X = math.floor(math.log10(x))
        assert (Fraction(x) * Fraction(10) ** (16 - X)).denominator == 2, x
    # printf goes down on some ties and up on others: half to even, not half up or down
    directions = {Fraction("%.17g" % x) > Fraction(x) for x in ties}
    assert directions == {False, True}
    _assert_prints_like_g17(ties + [-x for x in ties])


def test_kernel_matches_printf_at_the_style_boundaries():
    # %g switches between fixed and exponent notation at X = -5/-4 and 16/17
    edges = [1e-4, 1.5e-4, 9.5e-5, 1.25e-5, 1e16, 1.5e16, 99999999999999984.0, 1e17, 1.5e17, 1e-11, 1e-10]
    values = [u for x in edges for u in _neighbours(x, 2)]
    _assert_prints_like_g17(values + [-u for u in values])


def test_kernel_matches_printf_outside_its_exact_range():
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300,
              np.finfo(np.float64).max, -np.finfo(np.float64).max, 1e300, 9.9e-12, 2e17]
    _assert_prints_like_g17(values)
    # a block in which every value takes the per-value path, in rows of three
    block = np.array(values).reshape(4, 3)
    want = "".join(",".join("%.17g" % x for x in row) + "\n" for row in block)
    assert csvtext.format_rows(block).decode("ascii") == want


_MARGINAL_SPECS = [
    MarginalSpec("standard_gaussian", 3),
    MarginalSpec("aniso_gaussian", 3, scales=(1e-6, 1.0, 1e6)),
    MarginalSpec("student_t", 3, dof=3.0),
    MarginalSpec("slc_exp_tilt", 3, lam=0.8),
    MarginalSpec("planar_mixture", 3, mixture=PlanarMixtureParams((0.5, 0.5), ((-30.0, 0.0), (30.0, 0.0)), (0.5, 0.5))),
]


@pytest.mark.parametrize("spec", _MARGINAL_SPECS, ids=lambda spec: spec.kind)
def test_csv_text_of_each_marginal_matches_the_reference_formatter(spec):
    X = sample_marginal(spec, 3000, RngSeed(28))
    S = apply_noise(X, NoiseSpec("agnostic_random", project_to_sphere([1.0, 1.0, 0.0]), opt=0.1), RngSeed(29))
    assert set(S.labels) == {-1.0, 1.0}  # both label texts, '%d' of -1 and of 1
    assert dataset_to_csv(S) == _reference_csv(S)


def _read_without_parsing(path, monkeypatch):
    """read_dataset_csv(path) with the text parser disabled: only a twin hit succeeds."""

    def no_parse(*args, **kwargs):
        raise AssertionError("parsed the CSV text although its twin matches")

    with monkeypatch.context() as m:
        m.setattr(np, "loadtxt", no_parse)
        m.setattr(datagen, "_parse_rows", no_parse)
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


# ---------------------------------------------------------------------------
# the orjson row parser, value by value against np.loadtxt


def _rows_of(fields, cols):
    """The bytes of rows of cols fields each, the last row padded with 1s."""
    fields = list(fields)
    fields += ["1"] * (-len(fields) % cols)
    return "".join(",".join(fields[i : i + cols]) + "\n" for i in range(0, len(fields), cols)).encode("ascii")


def _loadtxt_rows(raw):
    return np.loadtxt(io.StringIO(raw.decode("ascii")), delimiter=",", ndmin=2)


def _assert_parses_like_loadtxt(raw, cols):
    got = datagen._parse_rows(raw, cols)
    assert got is not None, "declined rows in the documented syntax"
    want = _loadtxt_rows(raw)
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.uint64).ravel() != want.view(np.uint64).ravel())
    if bad.size:
        fields = raw.replace(b"\n", b",").split(b",")
        pytest.fail(f"{bad.size} values differ, first {fields[bad[0]]!r}: {got.flat[bad[0]]!r} != {want.flat[bad[0]]!r}")


def _finite_bit_patterns(count, seed):
    v = np.random.default_rng(seed).integers(0, 2**64, size=count, dtype=np.uint64).view(np.float64)
    return v[np.isfinite(v)]


@pytest.mark.parametrize("style", ["%.17g", "%.25e", "repr"])
def test_parse_rows_reads_random_doubles_like_loadtxt(style):
    fmt = repr if style == "repr" else style.__mod__
    values = _finite_bit_patterns(20_000, seed=len(style))  # zero has probability 2**-63
    _assert_parses_like_loadtxt(_rows_of(map(fmt, values.tolist()), 4), 4)


def test_parse_rows_reads_the_writers_rows_like_loadtxt():
    v = _finite_bit_patterns(20_000, seed=30)
    v = v[: len(v) // 4 * 4].reshape(-1, 4)
    y = np.where(np.random.default_rng(31).random(len(v)) < 0.5, -1.0, 1.0)
    raw = csvtext.format_rows(np.column_stack([y, v]))
    assert len(raw) > 4 * datagen._PARSE_CHUNK
    _assert_parses_like_loadtxt(raw, 5)


def _halfway_strings(count, seed):
    """The exact decimal midpoint of each of count pairs of adjacent doubles,
    subnormal to huge, and the midpoint moved a 40th digit up and down."""
    out = []
    with decimal.localcontext() as ctx:
        ctx.prec = 1200  # every midpoint of doubles has fewer significant digits
        for a in np.abs(_finite_bit_patterns(count, seed)).tolist():
            b = float(np.nextafter(a, np.inf))
            if math.isinf(b):
                continue
            mid = (decimal.Decimal(a) + decimal.Decimal(b)) / 2
            nudge = decimal.Decimal(10) ** (mid.adjusted() - 40)
            out += [str(mid), str(mid + nudge), str(mid - nudge)]
    return out


def test_parse_rows_reads_exact_halfway_points_like_loadtxt():
    strings = _halfway_strings(3000, seed=32)
    assert max(map(len, strings)) > 700  # subnormal midpoints carry hundreds of digits
    _assert_parses_like_loadtxt(_rows_of(strings, 3), 3)


def test_parse_rows_reads_long_digit_strings_like_loadtxt():
    rng = random.Random(33)
    strings = []
    for _ in range(6000):
        digits = "".join(rng.choice("0123456789") for _ in range(rng.choice((18, 19, 20, 25, 40, 120, 800))))
        strings.append(f"{rng.choice(('', '-'))}{rng.randint(1, 9)}.{digits}e{rng.randint(-340, 300)}")
    _assert_parses_like_loadtxt(_rows_of(strings, 3), 3)


def test_parse_rows_reads_signed_zeros_and_wide_integers_like_loadtxt():
    fields = ["-0.0", "-0e0", "0", "0.0", "-0.0e-5", "1e-400", "-1e-400", "9007199254740993", "-9007199254740993",
              str(2**63 - 1), str(-(2**63)), str(-(2**63) - 1), str(2**64 - 1), str(2**64), str(2**64 + 1),
              str(3**60), "-" + str(7**100), str(2**1023 + 2**970), "4.9e-324", "2.4703282292062328e-324",
              "2.4703282292062327e-324", "1.7976931348623157e308", "1.7976931348623158e308", "1E5", "1e+05",
              "1e-05", "-1", "1e-99999999999999999999", "-0e99999999999", "1" + "0" * 400 + "e-400"]
    raw = _rows_of(fields, 3)
    _assert_parses_like_loadtxt(raw, 3)
    assert np.signbit(datagen._parse_rows(raw, 3).flat[:2]).all()


_OUTSIDE_THE_SYNTAX = {
    "bare_dot": "1,.5,2\n",
    "trailing_dot": "1,1.,2\n",
    "plus": "1,+1,2\n",
    "leading_zero": "1,01,2\n",
    "nan": "1,nan,2\n",
    "inf": "1,inf,2\n",
    "overflow": "1,1e400,2\n",
    "true": "1,true,2\n",
    "quoted": '1,"0.5",2\n',
    "comment": "# note\n1,0.5,2\n",
    "blank_line": "1,0.5,2\n\n-1,0.25,3\n",
    "crlf": "1,0.5,2\r\n-1,0.25,3\r\n",
    "space_before": "1, 0.5,2\n",
    "space_after": "1,0.5 ,2\n",
    "tab": "1,\t0.5,2\n",
    "no_final_newline": "1,0.5,2",
    "integer_minus_zero": "1,-0,2\n",
    "ragged_rows_that_cancel": "1,0.5,2,7\n-1,0.25\n",
    "ragged_rows": "1,0.5,2,7\n-1,0.25,3,8\n",
    "no_rows": "",
}


def _read_or_error(path):
    try:
        return read_dataset_csv(str(path))
    except Exception as exc:  # the error is what the caller compares
        return type(exc), str(exc)


@pytest.mark.parametrize("rows", list(_OUTSIDE_THE_SYNTAX.values()), ids=list(_OUTSIDE_THE_SYNTAX))
def test_rows_outside_the_syntax_read_as_loadtxt_reads_them(tmp_path, monkeypatch, rows):
    assert datagen._parse_rows(rows.encode("ascii"), 3) is None
    path = tmp_path / "odd.csv"
    path.write_bytes(b"y,x1,x2\n" + rows.encode("ascii"))
    got = _read_or_error(path)
    monkeypatch.setattr(datagen, "_parse_rows", lambda raw, cols: None)
    want = _read_or_error(path)
    if isinstance(want, LabeledDataset):
        _assert_same_bits(got, want)
    else:
        assert got == want


@pytest.mark.parametrize("bad_row", [b"1,-0,2,3\n", b"1,0.5,2\n", b"1, 0.5,2,3\n", b"1,true,2,3\n"])
def test_a_bad_row_past_the_first_chunk_declines_the_whole_parse(bad_row):
    good = csvtext.format_rows(np.random.default_rng(34).standard_normal((3000, 4)))
    assert len(good) > 2 * datagen._PARSE_CHUNK
    assert datagen._parse_rows(good + good, 4) is not None
    assert datagen._parse_rows(good + bad_row + good, 4) is None


def _write_repr_csv(S, path):
    """A CSV as repr() prints its values, the way scripts other than gen write one."""
    rows = [f"{int(yi)}," + ",".join(map(repr, xi)) for yi, xi in zip(S.labels.tolist(), S.points.tolist())]
    path.write_text(datagen._csv_header(S.d) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def test_gen_and_repr_csvs_are_parsed_without_loadtxt(tmp_path, monkeypatch):
    X = sample_marginal(MarginalSpec("student_t", 4, dof=3.0), 5000, RngSeed(35))
    S = apply_noise(X, NoiseSpec("agnostic_random", project_to_sphere([1.0, 1.0, 0.0, 0.0]), opt=0.1), RngSeed(36))
    gen_path, repr_path = tmp_path / "gen.csv", tmp_path / "repr.csv"
    write_dataset_csv(S, str(gen_path))
    (tmp_path / "gen.csv.twin").unlink()
    _write_repr_csv(S, repr_path)
    for path in (gen_path, repr_path):
        assert len(path.read_bytes()) > 4 * datagen._PARSE_CHUNK
        with monkeypatch.context() as m:
            m.setattr(np, "loadtxt", lambda *a, **k: pytest.fail("np.loadtxt ran"))
            fast = read_dataset_csv(str(path))
        with monkeypatch.context() as m:
            m.setattr(datagen, "_parse_rows", lambda raw, cols: None)
            slow = read_dataset_csv(str(path))
        _assert_same_bits(fast, slow)
        _assert_same_bits(fast, S)


def test_spec_validation():
    with pytest.raises(ValueError):
        MarginalSpec("student_t", 3, dof=2.0)
    with pytest.raises(ValueError):
        MarginalSpec("aniso_gaussian", 3, scales=(1.0, 2.0))
    with pytest.raises(ValueError):
        NoiseSpec("massart_constant", project_to_sphere([1, 0]), eta=0.5)
    with pytest.raises(ValueError):
        NoiseSpec("agnostic_random", project_to_sphere([1, 0]), opt=0.6)
