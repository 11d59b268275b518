import pytest

from cyarith.euler import (
    ELLIPTIC_BLOCK,
    KummerData,
    double_cover_euler,
    fold_elliptic,
    iterated_elliptic_euler,
)


def test_two_elliptic_blocks_give_k3():
    out = double_cover_euler(KummerData(0, 4), KummerData(0, 4))
    assert out == KummerData(24, 16)


def test_elliptic_second_factor_special_case():
    # with an elliptic second factor: e(X) = 6 e(D1), e(D) = 2 e(X1) + 4 e(D1)
    for e_cover, e_branch in ((0, 4), (24, 16), (24, -18), (96, 112), (7, 3)):
        out = double_cover_euler(KummerData(e_cover, e_branch), ELLIPTIC_BLOCK)
        assert out.e_cover == 6 * e_branch
        assert out.e_branch == 2 * e_cover + 4 * e_branch


def test_k3_with_sextic_branch():
    assert double_cover_euler(KummerData(24, -18), ELLIPTIC_BLOCK).e_cover == -108


def test_symmetry():
    a, b = KummerData(24, 16), KummerData(96, 112)
    assert double_cover_euler(a, b) == double_cover_euler(b, a)


def test_non_integral_half_term_rejected():
    with pytest.raises(ValueError, match="non-integral"):
        double_cover_euler(KummerData(1, 0), KummerData(1, 0))


def test_iterated_examples():
    assert iterated_elliptic_euler(1) == 0
    assert iterated_elliptic_euler(2) == 24  # the K3 Euler number
    assert iterated_elliptic_euler(5) == 3840
    with pytest.raises(ValueError):
        iterated_elliptic_euler(0)


def test_fold_matches_closed_form():
    for n in range(1, 11):
        assert fold_elliptic(n).e_cover == iterated_elliptic_euler(n)
    # the n = 3 intermediate from the recursion: e(X) = 96, e(D) = 112
    assert fold_elliptic(3) == KummerData(96, 112)


def test_borcea_voisin_list():
    # K3 (e = 24) branched in D, e(D) = -18, ..., 20, times an elliptic block
    covers = [double_cover_euler(KummerData(24, e), ELLIPTIC_BLOCK) for e in range(-18, 21, 2)]
    assert [c.e_cover for c in covers] == [
        -108, -96, -84, -72, -60, -48, -36, -24, -12, 0,
        12, 24, 36, 48, 60, 72, 84, 96, 108, 120,
    ]
    assert [c.e_branch for c in covers] == [48 + 4 * e for e in range(-18, 21, 2)]
