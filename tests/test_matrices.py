"""Matrix type, bitmask helpers, generators, text I/O."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alphaperm.matrices as matrices
from alphaperm.errors import DomainError, MatrixFormatError, MixedModeError
from alphaperm.kernels import (
    cycle_sum_table,
    determinant,
    doubled_hafnian_table,
    hafnian,
    per_alpha_dp,
    permanent,
)
from alphaperm.matrices import (
    HERMITIAN,
    REAL_SYMMETRIC,
    Matrix,
    _rand_fraction,
    _rng,
    direct_sum,
    doubled,
    dumps_matrix,
    full_mask,
    indices_from_mask,
    loads_matrix,
    matrix_digest,
    random_matrix,
    random_psd,
    random_symmetric_matrix,
    random_unit_diag_psd,
    read_matrix,
    split_masks,
    submatrix,
    write_matrix,
)
from alphaperm.scalars import (
    GaussianRational,
    clear_denominators,
    exact_real,
    from_scaled,
)

G = GaussianRational
F = Fraction


class TestBitmasks:
    def test_round_trip(self):
        assert full_mask(4) == 0b1111
        assert indices_from_mask(0b1011) == (0, 1, 3)
        assert indices_from_mask(0) == ()

    def test_split_masks(self):
        lo, hi = split_masks(4, 1)
        assert indices_from_mask(lo) == (0,)
        assert indices_from_mask(hi) == (1, 2, 3)
        with pytest.raises(DomainError):
            split_masks(4, 0)
        with pytest.raises(DomainError):
            split_masks(4, 4)


class TestMatrixType:
    def test_kind_inference(self):
        A = Matrix([[F(1), F(2)], [F(3), F(4)]])
        assert A.kind == "rational"
        B = Matrix([[G(1), G(0, 1)], [G(0, -1), G(1)]])
        assert B.kind == "complex-rational"
        C = Matrix([[1.0, 2.0], [3.0, 4.0]])
        assert C.kind == "float"

    def test_promotion_within_exact(self):
        A = Matrix([[F(1), G(0, 1)], [G(0, -1), F(1)]])
        assert A.kind == "complex-rational"

    def test_mixing_rejected(self):
        with pytest.raises(MixedModeError):
            Matrix([[F(1), 0.5], [F(1), F(1)]])

    def test_not_square_rejected(self):
        with pytest.raises(DomainError):
            Matrix([[F(1), F(2)]])
        with pytest.raises(DomainError):
            Matrix([[F(1)], [F(2), F(3)]])

    def test_empty_matrix(self):
        A = Matrix([], kind="rational")
        assert A.n == 0
        assert A == submatrix(Matrix.identity(3, "rational"), 0)

    def test_flag_validation(self):
        with pytest.raises(MatrixFormatError):
            Matrix([[F(1), F(2)], [F(3), F(4)]], real_symmetric=True)
        ok = Matrix([[F(1), F(2)], [F(2), F(4)]], real_symmetric=True)
        assert ok.real_symmetric and ok.hermitian
        with pytest.raises(MatrixFormatError):
            Matrix([[G(1), G(1, 1)], [G(1, 1), G(1)]], hermitian=True)
        herm = Matrix([[G(1), G(1, 1)], [G(1, -1), G(1)]], hermitian=True)
        assert herm.hermitian and not herm.real_symmetric

    def test_identity_and_entry(self):
        I3 = Matrix.identity(3, "rational")
        assert I3.entry(0, 0) == 1 and I3.entry(0, 1) == 0
        assert I3.diagonal() == (F(1), F(1), F(1))

    def test_eq_hash(self):
        A = Matrix([[F(1), F(2)], [F(2), F(1)]])
        B = Matrix([[F(1), F(2)], [F(2), F(1)]])
        assert A == B and hash(A) == hash(B)

    def test_to_float(self):
        A = Matrix([[F(1, 2), F(1)], [F(1), F(2)]], real_symmetric=True)
        Af = A.to_float()
        assert Af.kind == "float" and Af.entry(0, 0) == 0.5
        assert Af.real_symmetric


class TestBuilders:
    def test_submatrix(self):
        A = Matrix([[F(i * 3 + j) for j in range(3)] for i in range(3)])
        S = submatrix(A, 0b101)
        assert S.rows == ((F(0), F(2)), (F(6), F(8)))

    def test_submatrix_keeps_flags(self):
        A = random_psd(4, REAL_SYMMETRIC, 3, seed=1)
        S = submatrix(A, 0b1010)
        assert S.real_symmetric and S.hermitian

    def test_direct_sum(self):
        A = Matrix([[F(1)]])
        B = Matrix([[F(2), F(3)], [F(4), F(5)]])
        D = direct_sum(A, B)
        assert D.n == 3
        assert D.entry(0, 0) == 1 and D.entry(1, 1) == 2
        assert D.entry(0, 1) == 0 and D.entry(2, 0) == 0

    def test_doubled(self):
        A = Matrix([[F(1), F(2)], [F(2), F(5)]], real_symmetric=True)
        D = doubled(A)
        assert D.n == 4
        for i in range(2):
            for j in range(2):
                v = A.entry(i, j)
                assert D.entry(i, j) == v
                assert D.entry(i + 2, j) == v
                assert D.entry(i, j + 2) == v
                assert D.entry(i + 2, j + 2) == v

    def test_doubled_rejects_asymmetric(self):
        A = Matrix([[F(1), F(2)], [F(3), F(4)]])
        with pytest.raises(DomainError):
            doubled(A)


# matrix_digest of generated instances (scale 3), recorded before the Gram
# generator moved to integer arithmetic; the instance streams must not move.
_PINNED_DIGESTS = {
    ("random_unit_diag_psd", REAL_SYMMETRIC, 4, 0):
        "aee232cd79072b548c76298a62a318a3e9de932af8e70d6a4ff38d00ba2453d7",
    ("random_unit_diag_psd", REAL_SYMMETRIC, 4, 1):
        "55d7e0c5d8b2800db9433a345a2bb6e7e3f715836e75cb23413947c9f47d4abf",
    ("random_unit_diag_psd", REAL_SYMMETRIC, 4, 141):
        "59349852eb9091c74475a07cea1e3a31d6f4fce8d577dcb8982e6d76ed425f80",
    ("random_unit_diag_psd", REAL_SYMMETRIC, 5, 0):
        "4fd78065854b5e53d659dbda17a46b7539fabfef74bc3f8582d432c5c29bbb05",
    ("random_unit_diag_psd", REAL_SYMMETRIC, 5, 1):
        "1d348665a91c60c6d1fc6470cbf32a3c312f533540d2fce7ceeca031dcff86bf",
    ("random_unit_diag_psd", REAL_SYMMETRIC, 5, 141):
        "e0dfd1939d42ae2a067b8d8b550694dad450abe83012776c7ffb4a7d72d96d2d",
    ("random_unit_diag_psd", HERMITIAN, 4, 0):
        "6ce8faccdb1f69872890eb9d823c1a7910a391d74fc25a6e7c19a4aee5744762",
    ("random_unit_diag_psd", HERMITIAN, 4, 1):
        "4cd26f150aa1d825e661db114aa45d24731bf4baa4434485236e7385a48041a9",
    ("random_unit_diag_psd", HERMITIAN, 4, 141):
        "10e15e51b3e87aa8855807152ab5d937566a061fba1b86d0bd012f853339d883",
    ("random_unit_diag_psd", HERMITIAN, 5, 0):
        "bd29dd642c52e624d032d1e00878eb0a45902fb74305539fd636219280c829a2",
    ("random_unit_diag_psd", HERMITIAN, 5, 1):
        "42b3df02939949d459d5f622965ef4892049925a22e484db8017d31429ff7db4",
    ("random_unit_diag_psd", HERMITIAN, 5, 141):
        "0f8ebb0ec83212becf8bd1e4de7d1caf5c9cbb80a9df607dd55b55583a51ffdc",
    ("random_psd", REAL_SYMMETRIC, 4, 0):
        "8f661c2bffc223dc7f24edb5dbba5bfab18fc5fca89ad54339c6c5d3e0737326",
    ("random_psd", REAL_SYMMETRIC, 4, 1):
        "c2550af012beba36f6dccd4f9d4e4d1975dbd809682a54f6f6017b4199d6d5e0",
    ("random_psd", REAL_SYMMETRIC, 4, 141):
        "ee3b538e581b962e4d4e8dae18830264ff709c100d8c47ab96000a66a16352e4",
    ("random_psd", REAL_SYMMETRIC, 5, 0):
        "c9171846659330f7961f2c3546340726d985b205d26bcf0030f52e89fa6a6d3d",
    ("random_psd", REAL_SYMMETRIC, 5, 1):
        "280c9ac62d2a95de3694ba92ba3ba88f1e814aad635098149cab42cc5f0aef08",
    ("random_psd", REAL_SYMMETRIC, 5, 141):
        "fc8f018523fcd7f39d30ee8ce54dc2a95d39c611b20e88a35733beca59c11cc0",
    ("random_psd", HERMITIAN, 4, 0):
        "4a8188085ccccedfee16f8dbb992513ad82747109777c40633f632e743c33c6e",
    ("random_psd", HERMITIAN, 4, 1):
        "5f5af4fd144a989de5a1b9fb74eddbce36b3d6bf5caa6762ec42544a7a5566bb",
    ("random_psd", HERMITIAN, 4, 141):
        "ea50385c2f75f7b93993f86337e1989dc52fda0ae33209f8183ed55d41b67672",
    ("random_psd", HERMITIAN, 5, 0):
        "c7579b33491c55c8653a8342471b50a3a1453dc4363c9b74cae2ec889ab30e08",
    ("random_psd", HERMITIAN, 5, 1):
        "a7f15f27b4651b852a13a0c533c568ca410bb395691de67b56ba200109bbeab6",
    ("random_psd", HERMITIAN, 5, 141):
        "471ed4e4112dec379ec805d564ae227b1cf508fd85738ea3f35fd6f98bfb74f3",
}


def _minors_nonnegative(A) -> bool:
    """Exact PSD test of a Hermitian A: every principal minor is >= 0."""
    assert A.is_hermitian_entrywise()
    return all(exact_real(determinant(submatrix(A, mask))) >= 0
               for mask in range(1, 1 << A.n))


class TestGenerators:
    def test_random_matrix_determinism(self):
        A = random_matrix(4, "rational", scale=3, seed=11)
        B = random_matrix(4, "rational", scale=3, seed=11)
        C = random_matrix(4, "rational", scale=3, seed=12)
        assert A == B and A != C

    def test_random_psd_is_psd(self):
        for seed in range(5):
            A = random_psd(4, REAL_SYMMETRIC, 3, seed=seed)
            assert A.real_symmetric
            assert _minors_nonnegative(A)
            H = random_psd(3, HERMITIAN, 3, seed=seed)
            assert H.hermitian and not H.real_symmetric
            assert _minors_nonnegative(H)
        indefinite = Matrix([[F(1), F(2)], [F(2), F(1)]], real_symmetric=True)
        assert not _minors_nonnegative(indefinite)

    def test_unit_diag_psd(self):
        for seed in range(5):
            A = random_unit_diag_psd(5, REAL_SYMMETRIC, 3, seed=seed)
            assert all(d == 1 for d in A.diagonal())
            assert _minors_nonnegative(A)
            H = random_unit_diag_psd(4, HERMITIAN, 3, seed=seed)
            assert all(d == G(1) for d in H.diagonal())
            assert _minors_nonnegative(H)

    @pytest.mark.parametrize("key", sorted(_PINNED_DIGESTS, key=str))
    def test_instance_streams_pinned(self, key):
        gen = {"random_unit_diag_psd": random_unit_diag_psd,
               "random_psd": random_psd}[key[0]]
        A = gen(key[2], key[1], 3, key[3])
        assert matrix_digest(A) == _PINNED_DIGESTS[key]

    @pytest.mark.parametrize("gen", [
        lambda n: random_matrix(n, "rational"),
        lambda n: random_symmetric_matrix(n),
        lambda n: random_psd(n, REAL_SYMMETRIC),
        lambda n: random_unit_diag_psd(n, HERMITIAN)],
        ids=["matrix", "symmetric", "psd", "unit-diag-psd"])
    def test_negative_n_rejected(self, gen):
        with pytest.raises(DomainError, match="n must be >= 0"):
            gen(-1)
        assert gen(0).n == 0

    @pytest.mark.parametrize("kind", [REAL_SYMMETRIC, HERMITIAN])
    def test_unit_diag_psd_n1(self, kind):
        A = random_unit_diag_psd(1, kind, 3, seed=0)
        assert A.kind == ("rational" if kind == REAL_SYMMETRIC
                          else "complex-rational")
        assert A.diagonal() == (1,)


# The Gram generators as they were before they moved to integers, on
# Fraction and GaussianRational scalars through Matrix's checked
# constructor: the reference the integer generators must reproduce.

def _ref_gram(b_rows, complex_entries: bool) -> Matrix:
    n = len(b_rows)
    L, re, im = clear_denominators(b_rows)
    den = L * L
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            dot = sum(a * c for a, c in zip(re[i], re[j]))
            if complex_entries:
                dot += sum(b * d for b, d in zip(im[i], im[j]))
                cross = (sum(b * c for b, c in zip(im[i], re[j]))
                         - sum(a * d for a, d in zip(re[i], im[j])))
                rows[i][j] = from_scaled(den, dot, cross)
                rows[j][i] = from_scaled(den, dot, -cross)
            else:
                rows[i][j] = rows[j][i] = from_scaled(den, dot)
    if complex_entries:
        return Matrix(rows, kind="complex-rational", hermitian=True)
    return Matrix(rows, kind="rational", real_symmetric=True, hermitian=True)


def _ref_random_psd(n, kind, scale, seed):
    rng = _rng("psd", kind, n, scale, seed)
    if kind == REAL_SYMMETRIC:
        b = [[_rand_fraction(rng, scale) for _ in range(n)] for _ in range(n)]
        return _ref_gram(b, complex_entries=False)
    b = [[G(_rand_fraction(rng, scale), _rand_fraction(rng, scale))
          for _ in range(n)] for _ in range(n)]
    return _ref_gram(b, complex_entries=True)


def _ref_rational_unit_vector(rng, d, scale):
    u = [_rand_fraction(rng, scale) for _ in range(d - 1)]
    D, [U], _ = clear_denominators([u])
    norm = sum(x * x for x in U)
    den = D * D + norm
    return ([from_scaled(den, 2 * D * x) for x in U]
            + [from_scaled(den, D * D - norm)])


def _ref_random_unit_diag_psd(n, kind, scale, seed):
    if n == 0:
        return Matrix([], kind="rational" if kind == REAL_SYMMETRIC
                      else "complex-rational",
                      real_symmetric=kind == REAL_SYMMETRIC, hermitian=True)
    rng = _rng("unitpsd", kind, n, scale, seed)
    if kind == REAL_SYMMETRIC:
        b = [_ref_rational_unit_vector(rng, n, scale) for _ in range(n)]
        return _ref_gram(b, complex_entries=False)
    b = []
    for _ in range(n):
        x = _ref_rational_unit_vector(rng, 2 * n, scale)
        b.append([G(x[2 * k], x[2 * k + 1]) for k in range(n)])
    return _ref_gram(b, complex_entries=True)


_GENERATORS = {
    "random_psd": (random_psd, _ref_random_psd),
    "random_unit_diag_psd": (random_unit_diag_psd, _ref_random_unit_diag_psd),
}


def _same_matrix(A, B):
    assert A == B
    assert (A.n, A.kind, A.real_symmetric, A.hermitian) == \
        (B.n, B.kind, B.real_symmetric, B.hermitian)
    assert dumps_matrix(A) == dumps_matrix(B)


class TestIntegerGenerators:
    @given(st.sampled_from(sorted(_GENERATORS)),
           st.sampled_from([REAL_SYMMETRIC, HERMITIAN]),
           st.integers(0, 7), st.integers(1, 4), st.integers(0, 10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_generator(self, name, kind, n, scale, seed):
        gen, ref = _GENERATORS[name]
        A = gen(n, kind, scale, seed)
        _same_matrix(A, ref(n, kind, scale, seed))
        # the carried form is exactly what clearing the entries gives
        assert A._cleared is not None
        assert A.cleared == clear_denominators(A.rows)

    @pytest.mark.parametrize("name", sorted(_GENERATORS))
    @pytest.mark.parametrize("kind", [REAL_SYMMETRIC, HERMITIAN])
    @pytest.mark.parametrize("n", [0, 1])
    def test_small_n_kind_and_flags(self, name, kind, n):
        gen, ref = _GENERATORS[name]
        A = gen(n, kind, 3, 7)
        _same_matrix(A, ref(n, kind, 3, 7))
        exact = "rational" if kind == REAL_SYMMETRIC else "complex-rational"
        assert A.kind == exact
        assert A.real_symmetric == (kind == REAL_SYMMETRIC) and A.hermitian
        assert A.cleared == clear_denominators(A.rows)
        if n == 0:
            assert A.cleared == (1, [], None)

    def test_generated_instance_is_never_cleared(self, monkeypatch):
        calls = []
        monkeypatch.setattr(matrices, "clear_denominators",
                            lambda rows: calls.append(rows))
        for kind in (REAL_SYMMETRIC, HERMITIAN):
            A = random_unit_diag_psd(4, kind, 3, seed=2)
            B = random_psd(4, kind, 3, seed=2)
            cycle_sum_table(A)
            per_alpha_dp(B, F(3, 2))
        R = random_psd(4, REAL_SYMMETRIC, 3, seed=3)
        permanent(R), determinant(R), hafnian(R)
        assert calls == []


class TestClearedForm:
    def test_trusted_constructor_builds_the_entries(self):
        A = Matrix._from_cleared("rational", (4, [[4, 2], [2, 1]], None),
                                 real_symmetric=True)
        assert A.rows == ((F(1), F(1, 2)), (F(1, 2), F(1, 4)))
        assert A.real_symmetric and A.hermitian
        H = Matrix._from_cleared(
            "complex-rational", (2, [[2, 1], [1, 2]], [[0, 3], [-3, 0]]),
            hermitian=True)
        assert H.rows[0][1] == G(F(1, 2), F(3, 2))
        assert H.rows[1][0] == G(F(1, 2), F(-3, 2))
        assert H.hermitian and not H.real_symmetric
        assert H.cleared == clear_denominators(H.rows)

    def test_trusted_constructor_checks_flags(self):
        lopsided = [[1, 2], [3, 1]]
        with pytest.raises(MatrixFormatError):
            Matrix._from_cleared("rational", (1, lopsided, None),
                                 real_symmetric=True)
        with pytest.raises(MatrixFormatError):
            Matrix._from_cleared("rational", (1, lopsided, None),
                                 hermitian=True)
        assert Matrix._from_cleared("rational", (1, lopsided, None)).n == 2
        sym = [[1, 2], [2, 1]]
        with pytest.raises(MatrixFormatError):   # imaginary diagonal
            Matrix._from_cleared("complex-rational",
                                 (1, sym, [[1, 0], [0, 0]]), hermitian=True)
        with pytest.raises(MatrixFormatError):   # im symmetric, not anti
            Matrix._from_cleared("complex-rational",
                                 (1, sym, [[0, 1], [1, 0]]), hermitian=True)
        with pytest.raises(MatrixFormatError):   # complex is never real
            Matrix._from_cleared("complex-rational",
                                 (1, sym, [[0, 1], [-1, 0]]),
                                 real_symmetric=True)

    def test_lazy_form_of_other_matrices(self, monkeypatch):
        A = random_unit_diag_psd(4, HERMITIAN, 3, seed=5)
        R = random_psd(3, REAL_SYMMETRIC, 3, seed=5)
        texts = [dumps_matrix(A), dumps_matrix(R)]
        built = [submatrix(A, 0b1011), submatrix(R, 0), doubled(R),
                 Matrix.identity(3, "complex-rational")]
        calls = []
        original = matrices.clear_denominators

        def counting(rows):
            calls.append(rows)
            return original(rows)

        monkeypatch.setattr(matrices, "clear_denominators", counting)
        # a loaded matrix carries the form its text parsed into
        for B in map(loads_matrix, texts):
            assert B._cleared is not None
            assert B.cleared == original(B.rows)
        assert calls == []
        for B in built:
            assert B._cleared is None
            assert B.cleared == original(B.rows)
            assert B.cleared is B.cleared
        assert len(calls) == len(built)
        D = doubled(R)
        doubled_hafnian_table(R)   # doubles R's kept integers
        assert len(calls) == len(built)
        hafnian(D), hafnian(D)
        assert len(calls) == len(built) + 1   # D is cleared once

    def test_float_matrices_never_fill_it(self):
        A = random_psd(3, REAL_SYMMETRIC, 3, seed=1).to_float()
        H = random_unit_diag_psd(3, HERMITIAN, 3, seed=1).to_float()
        for B in (A, H):
            per_alpha_dp(B, 1.5), permanent(B), determinant(B)
            assert B._cleared is None
            with pytest.raises(DomainError):
                B.cleared
        doubled_hafnian_table(A), hafnian(doubled(A))
        assert A._cleared is None


# malformed texts and the messages loads_matrix raises for them
_MALFORMED = [
    ('', 'empty matrix text'),
    ('# only a comment\n', 'empty matrix text'),
    ('field rational\nflags\n', "expected 'n' line, got 'field rational'"),
    ('n\nfield rational\n', 'bad n line'),
    ('n 2 3\nfield rational\n', 'bad n line'),
    ('n two\nfield rational\nflags\n', 'bad n line'),
    ('n -1\nfield rational\nflags\n', 'bad n line'),
    ('n 1\n', "missing 'field' line"),
    ('n 1\nfield\nflags\n1\n', "bad field line 'field'"),
    ('n 1\nfield integer\nflags\n1\n', "bad field line 'field integer'"),
    ('n 1\nfield rational float\nflags\n1\n',
     "bad field line 'field rational float'"),
    ('n 1\nkind rational\nflags\n1\n',
     "expected 'field' line, got 'kind rational'"),
    ('n 1\nfield rational\nflags sorted\n1\n', "unknown flag 'sorted'"),
    ('n 2\nfield rational\nflags\n1 2\n', 'missing row 2 of 2'),
    ('n 2\nfield rational\nflags\n1 2\n3\n',
     'row 2 has 1 entries, expected 2'),
    ('n 2\nfield rational\nflags\n1 2\n3 4 5\n',
     'row 2 has 3 entries, expected 2'),
    ('n 2\nfield rational\nflags\n1 2\n3 4\n5 6\n',
     'trailing content after 2 rows'),
    ('n 1\nfield rational\nflags\n1.5\n', "row 1: bad rational '1.5'"),
    ('n 1\nfield rational\nflags\n1/0\n', "row 1: bad rational '1/0'"),
    ('n 1\nfield rational\nflags\n1/-2\n', "row 1: bad rational '1/-2'"),
    ('n 1\nfield rational\nflags\n--1\n', "row 1: bad rational '--1'"),
    ('n 2\nfield rational\nflags\n1 x\n1/2 1/0\n', "row 1: bad rational 'x'"),
    ('n 1\nfield rational\nflags\n1+2i\n', "row 1: bad rational '1+2i'"),
    ('n 1\nfield complex-rational\nflags\n1+-2i\n',
     "row 1: bad complex rational '1+-2i'"),
    ('n 1\nfield complex-rational\nflags\ni\n',
     "row 1: bad complex rational 'i'"),
    ('n 1\nfield complex-rational\nflags\n1/0+1i\n',
     "row 1: bad complex rational '1/0+1i'"),
    ('n 1\nfield complex-rational\nflags\n1+1/0i\n',
     "row 1: bad complex rational '1+1/0i'"),
    ('n 1\nfield complex-rational\nflags\n1+2j\n',
     "row 1: bad complex rational '1+2j'"),
    ('n 1\nfield float\nflags\nnan\n', "row 1: non-finite float 'nan'"),
    ('n 1\nfield float\nflags\ninf\n', "row 1: non-finite float 'inf'"),
    ('n 1\nfield float\nflags\n1/2\n', "row 1: bad float '1/2'"),
    ('n 2\nfield rational\nflags real-symmetric\n1 1/2\n1/3 1\n',
     'real-symmetric flag does not hold'),
    ('n 2\nfield rational\nflags hermitian\n1 2\n3 1\n',
     'hermitian flag does not hold'),
    ('n 1\nfield complex-rational\nflags real-symmetric\n1\n',
     'real-symmetric flag does not hold'),
    ('n 2\nfield complex-rational\nflags hermitian\n1 1+1i\n1+1i 1\n',
     'hermitian flag does not hold'),
    ('n 1\nfield complex-rational\nflags hermitian\n1+1i\n',
     'hermitian flag does not hold'),
    ('n 2\nfield float\nflags real-symmetric\n1.0 2.0\n2.5 1.0\n',
     'real-symmetric flag does not hold'),
]


@st.composite
def _file_matrices(draw):
    """Exact matrices as a file holds them: either field, flags claimed
    where they hold, and some zero rows (and columns, under a flag)."""
    kind = draw(st.sampled_from(["rational", "complex-rational"]))
    n = draw(st.integers(0, 5))
    rational = st.builds(F, st.integers(-60, 60), st.integers(1, 12))
    entry = rational if kind == "rational" else st.builds(G, rational,
                                                          rational)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    flag = draw(st.sampled_from([None, "hermitian", "real-symmetric"]))
    if flag == "real-symmetric" and kind == "complex-rational":
        flag = "hermitian"
    if flag:
        for i in range(n):
            rows[i][i] = rows[i][i] + rows[i][i].conjugate()
            for j in range(i):
                rows[i][j] = rows[j][i].conjugate()
    zero = F(0) if kind == "rational" else G(0)
    for i in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2)):
        for j in range(n):
            rows[i][j] = zero
            if flag:
                rows[j][i] = zero
    return Matrix(rows, kind=kind, hermitian=flag == "hermitian",
                  real_symmetric=flag == "real-symmetric")


def _unreduced_dump(A, multipliers) -> str:
    """dumps_matrix(A) with each fraction written p*m/(q*m), m drawn in
    turn from multipliers."""
    m = iter(multipliers * (2 * A.n * A.n))

    def frac(x):
        k = next(m)
        return "%d/%d" % (x.numerator * k, x.denominator * k)

    def token(x):
        if isinstance(x, GaussianRational):
            return "%s%s%si" % (frac(x.re), "-" if x.im < 0 else "+",
                                frac(abs(x.im)))
        return frac(x)

    head = dumps_matrix(A).splitlines()[:3]
    return "\n".join(head + [" ".join(map(token, row)) for row in A.rows])


class TestTextFormat:
    @given(_file_matrices())
    @settings(max_examples=60, deadline=None)
    def test_exact_round_trip_keeps_the_cleared_form(self, A):
        B = loads_matrix(dumps_matrix(A))
        assert B.rows == A.rows
        assert ([type(x) for row in B.rows for x in row]
                == [type(x) for row in A.rows for x in row])
        assert ((B.kind, B.real_symmetric, B.hermitian)
                == (A.kind, A.real_symmetric, A.hermitian))
        assert B._cleared is not None
        assert B.cleared == clear_denominators(A.rows)

    @given(_file_matrices(), st.lists(st.integers(1, 7), min_size=1,
                                      max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_unreduced_tokens_clear_to_the_least_denominator(self, A, mults):
        B = loads_matrix(_unreduced_dump(A, mults))
        assert B.rows == A.rows and B.kind == A.kind
        assert B.cleared == clear_denominators(A.rows)

    def test_unreduced_tokens_pinned(self):
        A = loads_matrix("n 2\nfield rational\nflags\n2/4 3/6\n-4/8 10/5\n")
        assert A.rows == ((F(1, 2), F(1, 2)), (F(-1, 2), F(2)))
        assert A.cleared == (2, [[1, 1], [-1, 4]], None)
        H = loads_matrix("n 1\nfield complex-rational\nflags\n2/4-6/8i\n")
        assert H.cleared == (4, [[2]], [[-3]])

    @pytest.mark.parametrize("text, message", _MALFORMED)
    def test_malformed_messages(self, text, message):
        with pytest.raises(MatrixFormatError) as info:
            loads_matrix(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, line", [
        ("n 1\nfield rational\nflags\n\xff\n", 4),
        ("n \u00b2\nfield rational\nflags\n1\n", 1),
        ("n 1\nfield rational\nflags\n\u0663\n", 4),
        ("n 1\nfield float\nflags\n\u0663.5\n", 4),
        ("n 1\nfield complex-rational\nflags\n1+\u0663i\n", 4),
        ("n 2\nfield rational\nflags\n1\u00a02\n3 4\n", 4),
        ("# caf\u00e9\nn 1\nfield rational\nflags\n1\n", 1),
    ])
    def test_non_ascii_text_rejected(self, text, line):
        with pytest.raises(MatrixFormatError) as info:
            loads_matrix(text)
        assert str(info.value) == "non-ASCII text on line %d" % line

    def test_non_ascii_file_rejected(self, tmp_path):
        p = tmp_path / "bad.mat"
        for data in (b"n 1\nfield rational\nflags\n\xff\n",
                     "n 1\nfield rational\nflags\n\u0663\n".encode()):
            p.write_bytes(data)
            with pytest.raises(MatrixFormatError) as info:
                read_matrix(str(p))
            assert str(info.value) == "non-ASCII text on line 4"

    def test_crlf_file(self, tmp_path):
        p = tmp_path / "crlf.mat"
        p.write_bytes(b"n 2\r\nfield rational\r\nflags\r\n1 2\r\n3 4\r\n")
        assert read_matrix(str(p)).rows == ((F(1), F(2)), (F(3), F(4)))

    def test_round_trip_bytes(self):
        A = random_psd(4, HERMITIAN, 3, seed=9)
        text = dumps_matrix(A)
        B = loads_matrix(text)
        assert A == B
        assert dumps_matrix(B) == text
        assert matrix_digest(A) == matrix_digest(B)

    def test_file_round_trip(self, tmp_path):
        A = random_unit_diag_psd(3, REAL_SYMMETRIC, 2, seed=1)
        p = tmp_path / "a.mat"
        write_matrix(A, str(p))
        assert read_matrix(str(p)) == A

    def test_comments_and_blank_lines(self):
        A = loads_matrix(
            "# comment\n\nn 2\nfield rational\n# another\nflags\n1 2\n3 4\n")
        assert A.rows == ((F(1), F(2)), (F(3), F(4)))

    def test_flags_parsed(self):
        text = ("n 2\nfield rational\nflags real-symmetric hermitian\n"
                "1 1/2\n1/2 1\n")
        A = loads_matrix(text)
        assert A.real_symmetric and A.hermitian

    def test_flag_lied_rejected(self):
        text = ("n 2\nfield rational\nflags real-symmetric hermitian\n"
                "1 1/2\n1/3 1\n")
        with pytest.raises(MatrixFormatError):
            loads_matrix(text)

    def test_malformed_rejected(self):
        bad = [
            "n 2\nfield rational\nflags\n1 2\n3\n",          # short row
            "n 2\nfield rational\nflags\n1 2\n3 4\n5 6\n",   # extra row
            "n two\nfield rational\nflags\n",                # bad n
            "field rational\nflags\n",                       # missing n
            "n 1\nfield integer\nflags\n1\n",                # bad field
            "n 1\nfield rational\nflags\n1.5\n",             # wrong scalar
            "n 1\nfield rational\nbogus x\n1\n",             # bad header
        ]
        for text in bad:
            with pytest.raises(MatrixFormatError):
                loads_matrix(text)

    def test_float_field_round_trip(self):
        A = Matrix([[0.125, -3.5], [2.0, 1e-3]])
        B = loads_matrix(dumps_matrix(A))
        assert B == A

    def test_complex_entries_round_trip(self):
        A = Matrix([[G(1), G(F(1, 3), F(-2, 7))],
                    [G(F(1, 3), F(2, 7)), G(2)]], hermitian=True)
        assert loads_matrix(dumps_matrix(A)) == A

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_generator_round_trip(self, seed):
        A = random_matrix(3, "complex-rational", scale=4, seed=seed)
        assert loads_matrix(dumps_matrix(A)) == A
