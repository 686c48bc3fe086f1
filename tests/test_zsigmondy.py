import json
from math import gcd

import pytest
import sympy

from cgtkit import zsigmondy
from cgtkit._ntheory import is_prime
from cgtkit.zsigmondy import (CERTIFICATE_FLOOR, TABLE_E_MAX, TABLE_Q_MAX,
                              classify_small_zsigmondy, is_prime_power,
                              phi_star, prime_divisors, primes_have_order_e,
                              scan_reports)


def test_phi_star_reference_values():
    assert phi_star(2, 6) == 1
    assert phi_star(2, 4) == 5
    assert phi_star(2, 20) == 41
    assert phi_star(3, 1) == 2
    assert phi_star(2, 10) == 11


def _phi_star_by_every_m(q: int, e: int) -> int:
    """phi_star by its definition: strip q^m - 1 for every m < e."""
    g = q ** e - 1
    for m in range(1, e):
        other = q ** m - 1
        d = gcd(g, other)
        while d > 1:
            g //= d
            d = gcd(g, other)
    return g


def test_phi_star_strips_only_the_maximal_proper_divisors():
    reports = scan_reports(TABLE_Q_MAX, TABLE_E_MAX)
    assert len(reports) == 663
    for r in reports:
        assert r.phi_star == _phi_star_by_every_m(r.q, r.e), (r.q, r.e)
    for q in range(2, 10):
        if is_prime_power(q):
            for e in range(1, 61):
                assert phi_star(q, e) == _phi_star_by_every_m(q, e), (q, e)


def test_phi_star_rejects_non_prime_powers():
    with pytest.raises(ValueError):
        phi_star(6, 3)
    with pytest.raises(ValueError):
        phi_star(12, 2)


def test_prime_power_recognition():
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(27) == (3, 3)
    assert is_prime_power(7) == (7, 1)
    assert is_prime_power(1) is None
    assert is_prime_power(36) is None


def test_prime_divisors():
    assert prime_divisors(1) == []
    assert prime_divisors(1023) == [3, 11, 31]
    with pytest.raises(ValueError):
        prime_divisors((1 << 129))


def test_scan_exception_lists_small_grid():
    got = classify_small_zsigmondy(5, 6)
    ones = [(r.q, r.e) for r in got if r.category == "one"]
    assert ones == [(2, 6)]
    got = classify_small_zsigmondy(5, 20)
    eplus = sorted((r.q, r.e) for r in got if r.category == "e_plus_1")
    assert eplus == [(2, 4), (2, 10), (2, 12), (2, 18), (3, 4), (3, 6), (5, 6)]
    got = classify_small_zsigmondy(4, 20)
    twoe = sorted((r.q, r.e) for r in got if r.category == "two_e_plus_1")
    assert twoe == [(2, 3), (2, 8), (2, 20), (4, 3), (4, 6)]


def test_primitive_prime_congruence_property():
    for r in scan_reports(9, 12):
        for p in prime_divisors(r.phi_star):
            assert p % r.e == 1, (r.q, r.e, p)


def test_zsigmondy_existence_on_grid():
    for r in scan_reports(16, 14):
        if (r.q, r.e) != (2, 6):
            assert r.phi_star > 1


def test_phi_star_divides_cyclotomic_value():
    # phi_star(q,e) divides Phi_e(q) and the quotient is a power of the
    # largest prime divisor of e
    for q in (2, 3, 4, 5, 7, 9):
        for e in range(3, 31):
            if q ** e - 1 > (1 << 128):
                break
            val = int(sympy.cyclotomic_poly(e, q))
            ps = phi_star(q, e)
            assert val % ps == 0
            quotient = val // ps
            if quotient > 1:
                biggest = max(sympy.primefactors(e))
                while quotient % biggest == 0:
                    quotient //= biggest
                assert quotient == 1, (q, e)


def test_order_e_oracle_rejects_unstripped_cyclotomic_values():
    # Phi_e(q) keeps the primes of e that phi_star strips; their order is
    # a proper divisor of e, so the oracle must refuse Phi_e(q)
    rejected = 0
    for r in scan_reports(9, 30):
        assert primes_have_order_e(r.q, r.e, r.phi_star), (r.q, r.e)
        cyc = int(sympy.cyclotomic_poly(r.e, r.q))
        if cyc != r.phi_star:
            assert not primes_have_order_e(r.q, r.e, cyc), (r.q, r.e)
            rejected += 1
    assert rejected > 0
    assert not primes_have_order_e(2, 6, 3)       # Phi_6(2) = 3, phi_star = 1
    assert not primes_have_order_e(4, 3, 21)      # Phi_3(4) = 3 * 7


def test_miller_rabin_below_floor_matches_sympy():
    for n in range(-2, 5000):
        assert is_prime(n) == sympy.isprime(n), n
    # strong pseudoprimes to the first 4, 8 and 9 prime bases
    for n in (3215031751, 341550071728321, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(CERTIFICATE_FLOOR - 59)   # 2^64 - 59


def test_prime_divisors_answers_the_grid_from_the_table(monkeypatch):
    reports = scan_reports(TABLE_Q_MAX, TABLE_E_MAX)
    assert len(reports) == 663
    expected = {(r.q, r.e): sorted(sympy.factorint(r.phi_star))
                for r in reports if r.q <= 9}

    def refuse(n, *args, **kwargs):
        raise AssertionError(f"factorint({n}) called")

    zsigmondy._certified_table.cache_clear()
    monkeypatch.setattr(sympy, "factorint", refuse)
    got = {(r.q, r.e): prime_divisors(r.phi_star) for r in reports}
    assert {key: got[key] for key in expected} == expected
    with pytest.raises(AssertionError, match="factorint"):
        prime_divisors(1023)


# -- the certified table refuses tampered files ---------------------------------

def _table_data() -> dict:
    return json.loads(zsigmondy._TABLE_PATH.read_text())


@pytest.fixture
def load_tampered(tmp_path, monkeypatch):
    """Write a tampered copy of the table and load it in place of the real one."""
    def load(data):
        path = tmp_path / "zsigmondy.json"
        path.write_text(json.dumps(data))
        monkeypatch.setattr(zsigmondy, "_TABLE_PATH", path)
        zsigmondy._certified_table.cache_clear()
        return zsigmondy._certified_table()
    yield load
    zsigmondy._certified_table.cache_clear()


def _two_prime_entry(data, small: bool) -> list:
    """An entry whose phi_star is p1 * p2, its product below the Miller-Rabin
    floor when ``small`` and at or above it otherwise (the smallest such)."""
    rows = [row for row in data["factorizations"] if len(row[2]) == 2
            and row[2][0] * row[2][1] == phi_star(row[0], row[1])
            and (row[2][0] * row[2][1] < CERTIFICATE_FLOOR) == small]
    return min(rows, key=lambda row: row[2][0] * row[2][1])


def test_loader_rejects_a_short_factorization(load_tampered):
    data = _table_data()
    row = next(row for row in data["factorizations"] if len(row[2]) > 1)
    row[2].pop()
    with pytest.raises(ValueError, match=rf"entry \(q={row[0]}, e={row[1]}\): .*cofactor"):
        load_tampered(data)


def test_loader_rejects_a_composite_below_the_floor(load_tampered):
    data = _table_data()
    row = _two_prime_entry(data, small=True)
    n = row[2][0] * row[2][1]
    row[2] = [n]
    with pytest.raises(ValueError, match=rf"entry \(q={row[0]}, e={row[1]}\): {n} is not prime"):
        load_tampered(data)


def test_loader_rejects_a_certified_composite_above_the_floor(load_tampered):
    data = _table_data()
    row = _two_prime_entry(data, small=False)
    n = row[2][0] * row[2][1]
    row[2] = [n]
    data["certificates"].append([n, 2, sorted(sympy.factorint(n - 1))])
    with pytest.raises(ValueError, match=rf"entry \(q={row[0]}, e={row[1]}\), "
                                         rf"certificate of {n}: witness 2 fails"):
        load_tampered(data)
    data["certificates"].pop()
    with pytest.raises(ValueError, match=f"no certificate for {n}"):
        load_tampered(data)


def test_loader_rejects_a_witness_of_too_small_order(load_tampered):
    # a prime reached only through the p - 1 of another certificate
    data = _table_data()
    listed = {p for row in data["factorizations"] for p in row[2]}
    cert = next(cert for cert in data["certificates"] if cert[0] not in listed)
    cert[1] = 4     # a square: 4^((p-1)/2) = 2^(p-1) = 1 (mod p)
    with pytest.raises(ValueError, match=rf"certificate of {cert[0]}: witness 4 has a\^\(\(p-1\)/2\)"):
        load_tampered(data)


def test_loader_rejects_a_certificate_with_a_cofactor(load_tampered):
    data = _table_data()
    cert = data["certificates"][-1]
    cert[2].pop()
    with pytest.raises(ValueError, match=f"certificate of {cert[0]}: .*cofactor of p - 1"):
        load_tampered(data)


@pytest.mark.parametrize("q, e", [(6, 3), (3, 81), (2, 200)])
def test_loader_rejects_an_entry_off_the_grid(load_tampered, q, e):
    data = _table_data()
    data["factorizations"][0][:2] = [q, e]
    with pytest.raises(ValueError, match=rf"entry \(q={q}, e={e}\): off the grid"):
        load_tampered(data)
