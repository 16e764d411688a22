"""Scalar parsing, formatting, arithmetic, and generalized binomials."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alphaperm.errors import MixedModeError, ScalarFormatError
from alphaperm.scalars import (
    _RAT_RE,
    ONE_OF,
    ZERO_OF,
    GaussianRational,
    as_scalar,
    complex_rational_parts,
    conj_scalar,
    exact_real,
    format_scalar,
    gen_binomial,
    kind_is_complex,
    kind_is_exact,
    parse_scalar,
    rational_parts,
    scalar_kind,
    to_float_scalar,
)

G = GaussianRational


class TestGaussianRational:
    def test_construction_and_fields(self):
        z = G(Fraction(1, 2), Fraction(-3, 4))
        assert z.re == Fraction(1, 2) and z.im == Fraction(-3, 4)
        assert G(2).im == 0
        assert G(2, 0) == Fraction(2)
        assert Fraction(2) == G(2, 0)

    def test_arithmetic(self):
        i = G(0, 1)
        assert i * i == G(-1)
        assert (G(1, 2) + G(3, -5)) == G(4, -3)
        assert (G(1, 2) - G(3, -5)) == G(-2, 7)
        assert G(1, 1) * G(1, -1) == G(2)
        assert (G(1, 2) / G(3, 4)) * G(3, 4) == G(1, 2)
        assert -G(1, -2) == G(-1, 2)

    def test_mixing_with_rational(self):
        z = G(1, 2)
        assert z + Fraction(1, 2) == G(Fraction(3, 2), 2)
        assert Fraction(1, 2) + z == G(Fraction(3, 2), 2)
        assert 3 * z == G(3, 6)
        assert z / 2 == G(Fraction(1, 2), 1)
        assert Fraction(1) / G(0, 1) == G(0, -1)

    def test_float_mixing_rejected(self):
        with pytest.raises(MixedModeError):
            G(1, 2) + 0.5
        with pytest.raises(MixedModeError):
            0.5 * G(1, 2)
        with pytest.raises(MixedModeError):
            G(1, 2) / 2.0

    def test_pow(self):
        z = G(1, 1)
        assert z ** 0 == G(1)
        assert z ** 2 == G(0, 2)
        assert z ** 4 == G(-4)
        assert G(0, 1) ** -1 == G(0, -1)
        assert (G(2, 1) ** -2) * (G(2, 1) ** 2) == G(1)

    def test_conjugate_abs(self):
        z = G(3, -4)
        assert z.conjugate() == G(3, 4)
        assert z * z.conjugate() == Fraction(25)

    def test_hash_consistent_with_rational_equality(self):
        assert hash(G(7, 0)) == hash(Fraction(7))
        assert hash(G(1, 2)) == hash(G(1, 2))

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            G(1) / G(0)

    @given(st.fractions(), st.fractions(), st.fractions(), st.fractions())
    def test_mul_matches_complex(self, a, b, c, d):
        z = G(a, b) * G(c, d)
        assert z.re == a * c - b * d
        assert z.im == a * d + b * c


class TestKinds:
    def test_scalar_kind(self):
        assert scalar_kind(Fraction(1, 2)) == "rational"
        assert scalar_kind(3) == "rational"
        assert scalar_kind(G(1, 2)) == "complex-rational"
        assert scalar_kind(1.5) == "float"
        assert scalar_kind(1 + 2j) == "complex-float"

    def test_kind_predicates(self):
        assert kind_is_exact("rational") and kind_is_exact("complex-rational")
        assert not kind_is_exact("float")
        assert kind_is_complex("complex-rational")
        assert kind_is_complex("complex-float")
        assert not kind_is_complex("rational")

    def test_as_scalar_normalizes_ints(self):
        v = as_scalar(3)
        assert isinstance(v, Fraction)
        assert as_scalar(1.25) == 1.25

    def test_helpers(self):
        assert ZERO_OF[scalar_kind(G(5, 5))] == G(0)
        assert ONE_OF["complex-rational"] == G(1)
        assert ONE_OF["float"] == 1.0
        for kind in ONE_OF:
            assert type(ZERO_OF[kind]) is type(ONE_OF[kind])
            assert scalar_kind(ONE_OF[kind]) == kind
        assert conj_scalar(G(1, 2)) == G(1, -2)
        assert conj_scalar(Fraction(3)) == Fraction(3)
        assert conj_scalar(1 - 2j) == 1 + 2j

    def test_to_float_scalar(self):
        assert to_float_scalar(Fraction(1, 4)) == 0.25
        assert to_float_scalar(G(1, 2)) == 1 + 2j
        assert to_float_scalar(0.5) == 0.5

    def test_exact_real(self):
        assert exact_real(G(7, 0)) == Fraction(7)
        assert exact_real(Fraction(2, 3)) == Fraction(2, 3)
        with pytest.raises(ArithmeticError):
            exact_real(G(1, 1))


class TestParsing:
    def test_rational_forms(self):
        assert parse_scalar("3", "rational") == Fraction(3)
        assert parse_scalar("-3/4", "rational") == Fraction(-3, 4)
        assert parse_scalar("+7/2", "rational") == Fraction(7, 2)

    def test_rational_rejects(self):
        for bad in ("3/0", "3/-4", "1.5", "", "3 /4", "0x3", "2/4/8", "i",
                    "3/2\n", "3\n"):
            with pytest.raises(ScalarFormatError):
                parse_scalar(bad, "rational")

    @given(st.from_regex(_RAT_RE, fullmatch=True))
    @example("007")
    @example("-0")
    @example("+5/10")
    def test_rational_equals_fraction_of_text(self, text):
        got = parse_scalar(text, "rational")
        assert type(got) is Fraction and got == Fraction(text)

    def test_complex_forms(self):
        assert parse_scalar("1/2+1/3i", "complex-rational") == G(
            Fraction(1, 2), Fraction(1, 3))
        assert parse_scalar("1/2-1/3i", "complex-rational") == G(
            Fraction(1, 2), Fraction(-1, 3))
        assert parse_scalar("-2i", "complex-rational") == G(0, -2)
        assert parse_scalar("5", "complex-rational") == G(5)
        # an optional space before the imaginary unit is tolerated on input
        assert parse_scalar("1+1/2 i", "complex-rational") == G(
            1, Fraction(1, 2))

    def test_complex_rejects(self):
        for bad in ("1+", "i+1", "1+i2", "1 + 2i", "2i+1", "1+2j", "1+2i\n",
                    "2i\n", "5\n"):
            with pytest.raises(ScalarFormatError):
                parse_scalar(bad, "complex-rational")

    def test_float_forms(self):
        assert parse_scalar("1.5", "float") == 1.5
        assert parse_scalar("-2e-3", "float") == -0.002
        for bad in ("abc", "nan", " 1.5\n", "\t2", "1.5 ", "\n", "1 .5"):
            with pytest.raises(ScalarFormatError):
                parse_scalar(bad, "float")

    @pytest.mark.parametrize("text", [
        "\u0663",              # ARABIC-INDIC DIGIT THREE, which \d matches
        "1/\u0663", "\u0663/2", "\u00b2", "\uff11", "-\u0967",
    ])
    def test_only_ascii_digits(self, text):
        for kind in ("rational", "complex-rational", "float"):
            with pytest.raises(ScalarFormatError):
                parse_scalar(text, kind)
        for bad in (text + "+1i", "1+" + text + "i", text + "i"):
            with pytest.raises(ScalarFormatError):
                parse_scalar(bad, "complex-rational")
        with pytest.raises(ScalarFormatError):
            parse_scalar(text + ".5", "float")

    def test_error_messages(self):
        for text, kind, message in (
                ("1.5", "rational", "bad rational '1.5'"),
                ("1+-2i", "complex-rational", "bad complex rational '1+-2i'"),
                ("\u0663", "rational", "bad rational '\u0663'"),
                ("\u0663.5", "float", "bad float '\u0663.5'"),
                ("inf", "float", "non-finite float 'inf'")):
            with pytest.raises(ScalarFormatError) as info:
                parse_scalar(text, kind)
            assert str(info.value) == message

    def test_parts_as_written(self):
        assert rational_parts("2/4") == (2, 4)
        assert rational_parts("-3") == (-3, 1)
        assert rational_parts("+007/10") == (7, 10)
        assert complex_rational_parts("2/4-6/8i") == ((2, 4), (-6, 8))
        assert complex_rational_parts("-5/3+1i") == ((-5, 3), (1, 1))
        assert complex_rational_parts("-2/6 i") == ((0, 1), (-2, 6))
        assert complex_rational_parts("7") == ((7, 1), (0, 1))
        assert all(type(x) is int for pair in complex_rational_parts("1/2+3i")
                   for x in pair)

    @given(st.fractions(), st.fractions(), st.integers(1, 6),
           st.integers(1, 6))
    def test_parts_are_the_parsed_value(self, a, b, m, k):
        # unreduced tokens too: the parts keep the written denominators
        re_text = "%d/%d" % (a.numerator * m, a.denominator * m)
        im_text = "%d/%d" % (abs(b.numerator) * k, b.denominator * k)
        text = re_text + ("-" if b < 0 else "+") + im_text + "i"
        assert rational_parts(re_text) == (a.numerator * m, a.denominator * m)
        assert complex_rational_parts(text) == (
            rational_parts(re_text), (b.numerator * k, b.denominator * k))
        assert parse_scalar(re_text, "rational") == a
        assert parse_scalar(text, "complex-rational") == G(a, b)

    def test_format_round_trip_exact(self):
        for v in (Fraction(-7, 3), Fraction(0), Fraction(12)):
            assert parse_scalar(format_scalar(v), "rational") == v
        for z in (G(1, 2), G(0, -1), G(Fraction(-1, 2), Fraction(3, 7)),
                  G(5)):
            assert parse_scalar(format_scalar(z), "complex-rational") == z

    def test_format_canonical(self):
        assert format_scalar(G(1, 2)) == "1+2i"
        assert format_scalar(G(1, -2)) == "1-2i"
        assert format_scalar(G(0, 1)) == "0+1i"
        assert format_scalar(Fraction(-1, 2)) == "-1/2"

    @given(st.fractions(), st.fractions())
    def test_complex_round_trip(self, a, b):
        z = G(a, b)
        assert parse_scalar(format_scalar(z), "complex-rational") == z

    def test_float_round_trip(self):
        for v in (0.1, -1e300, 3.141592653589793):
            assert parse_scalar(format_scalar(v), "float") == v


class TestGenBinomial:
    def test_pinned_values(self):
        a = Fraction(1, 2)
        assert gen_binomial(a, 0) == 1
        assert gen_binomial(a, 1) == a
        assert gen_binomial(a, 2) == Fraction(-1, 8)
        assert gen_binomial(a, 3) == Fraction(1, 16)
        assert gen_binomial(Fraction(3), 2) == 3
        assert gen_binomial(Fraction(3), 4) == 0
        assert gen_binomial(Fraction(5), 5) == 1

    def test_integer_agreement(self):
        for m in range(8):
            for k in range(8):
                assert gen_binomial(Fraction(m), k) == math.comb(m, k)

    def test_complex_alpha(self):
        z = G(1, 1)
        assert gen_binomial(z, 2) == z * (z - 1) / 2

    def test_float_alpha(self):
        assert gen_binomial(0.5, 2) == pytest.approx(-0.125)

    @given(st.fractions(max_denominator=50), st.integers(0, 12))
    def test_pascal_recurrence(self, a, k):
        # binom(a, k) + binom(a, k+1) == binom(a+1, k+1)
        assert gen_binomial(a, k) + gen_binomial(a, k + 1) == \
            gen_binomial(a + 1, k + 1)
