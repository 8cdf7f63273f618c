"""Group-ring identities and the symbolic solution constructions."""

import pytest

from pgal.errors import BadI, BadTheorem, MissingWitness
from pgal.kummer import (
    GroupRingElem,
    build_solution,
    minac_swallow_solution,
    norm_element,
    ring_one,
    sigma_minus_one,
    solution_family,
    theta_operator,
    verify_witness_t410,
)
from pgal.symbols import ind, one, rat, zeta

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23]


def test_theta_vectors():
    assert theta_operator(2).coeffs == (1, 0)
    assert theta_operator(3).coeffs == (2, 1, 0)


@pytest.mark.parametrize("p", PRIMES)
def test_sigma_minus_one_times_theta_is_norm_minus_p(p):
    lhs = sigma_minus_one(p).mul(theta_operator(p))
    rhs = norm_element(p).sub(ring_one(p).scale(p))
    assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sigma_minus_one_power_identities_mod_p(p):
    s1 = sigma_minus_one(p)
    assert s1.pow(p - 1).mod(p) == norm_element(p).mod(p)
    assert s1.pow(p).mod(p).is_zero()


def test_group_ring_convolution():
    a = GroupRingElem(3, (1, 1, 0))
    b = GroupRingElem(3, (0, 1, 0))
    assert a.mul(b).coeffs == (0, 1, 1)


def test_build_solution_t41():
    expr = build_solution("4.1", 3, {"omega": "omega"})
    assert expr.free_scalar == "f"
    assert expr.condition == "N(omega)=a2"
    (layer,) = expr.layers
    assert layer.degree == 3
    (atom,) = layer.radicand
    assert atom.base == "omega"
    assert atom.ring_exp == theta_operator(3)


def test_build_solution_t42_radicand():
    expr = build_solution("4.2", 3, {"omega": "w"})
    (layer,) = expr.layers
    a1, w = layer.radicand
    assert a1.base == "a1" and str(a1.frac_exp) == "-1/3"
    assert w.base == "w" and w.ring_exp == theta_operator(3)
    assert expr.condition == "N(w)=a2*zeta"


def test_build_solution_t44_and_t45():
    e4 = build_solution("4.4", 3, {"x": "x"})
    (layer,) = e4.layers
    a2, x = layer.radicand
    assert a2.base == "a2" and str(a2.frac_exp) == "1/3"
    assert x.ring_exp == theta_operator(3).scale(-1)
    e5 = build_solution("4.5", 3, {"y": "y"})
    (layer5,) = e5.layers
    a1, y = layer5.radicand
    assert str(a1.frac_exp) == "1/9"
    assert y.ring_exp == theta_operator(3)
    assert "zeta_p2" in e5.condition


def test_build_solution_errors():
    with pytest.raises(MissingWitness):
        build_solution("4.1", 3, {})
    with pytest.raises(BadTheorem):
        build_solution("9.9", 3, {"omega": "w"})


def test_solution_family_idempotent():
    expr = build_solution("4.1", 3, {"omega": "omega"})
    fam = solution_family(expr)
    fam2 = solution_family(fam.base)
    assert fam2.base.free_scalar == fam.base.free_scalar == "f"


def test_solution_family_adds_scalar_once():
    from pgal.kummer import Atom, Layer, SolutionExpr

    base = SolutionExpr((Layer((Atom("beta"),), 3),), None, "")
    fam = solution_family(base)
    assert fam.base.free_scalar == "f"


def test_minac_swallow_towers():
    e2 = minac_swallow_solution(3, 2)
    assert len(e2.layers) == 1
    assert e2.free_scalar is None
    (atom,) = e2.layers[0].radicand
    assert atom.ring_exp == sigma_minus_one(3).pow(1).mod(3)
    ep = minac_swallow_solution(3, 3)
    assert len(ep.layers) == 2
    assert ep.free_scalar == "f"
    assert ep.layers[0].radicand[0].ring_exp == ring_one(3)
    assert ep.layers[1].radicand[0].ring_exp == sigma_minus_one(3).mod(3)
    with pytest.raises(BadI):
        minac_swallow_solution(3, 4)


def test_minac_last_layer_exponent_is_norm_like_mod_p():
    p = 5
    expr = minac_swallow_solution(p, 2)
    (atom,) = expr.layers[0].radicand
    # (sigma-1)^(p-1) reduces to the all-ones vector mod p
    assert atom.ring_exp == sigma_minus_one(p).pow(p - 2).mod(p)
    assert sigma_minus_one(p).pow(p - 1).mod(p) == norm_element(p).mod(p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_minac_layers_are_the_powers_of_sigma_minus_one_mod_p(p):
    """Each layer's exponent, built coefficient by coefficient mod p, is
    (sigma-1)^j formed by j products and then reduced, for every i."""
    s1 = sigma_minus_one(p)
    for i in range(2, p + 1):
        got = [layer.radicand[0].ring_exp for layer in minac_swallow_solution(p, i).layers]
        assert got == [s1.pow(j).mod(p) for j in range(p - i, p - 1)], (p, i)


def test_minac_tower_at_a_five_digit_prime_is_quick():
    """The CLI's 4.12 tower at p = 10007: each layer is O(p) steps mod p, where
    j products of unreduced binomials had not finished in 120 s."""
    from fresh import run_request

    req = run_request(["solve", "--theorem", "4.12", "--p", "10007", "--i", "3"], timeout=60)
    assert req.code == 0 and req.seconds < 5, req.stderr
    assert req.stdout.count("root[10007]") == 2


def test_verify_witness_t410():
    assert not verify_witness_t410(True, one(), 3)
    assert verify_witness_t410(True, zeta(3), 3)
    assert not verify_witness_t410(False, zeta(3), 3)
    assert verify_witness_t410(True, rat(-1), 2)
    assert not verify_witness_t410(True, zeta(9), 3)
    assert not verify_witness_t410(True, ind("c"), 3)


def test_solution_json_shape():
    expr = build_solution("4.2", 3, {"omega": "omega"})
    doc = expr.to_json()
    assert doc["free_scalar"] == "f"
    assert doc["layers"][0]["degree"] == 3
    assert doc["condition"] == "N(omega)=a2*zeta"
    assert doc["layers"][0]["radicand"][0]["exp"] == {"frac": "-1/3"}
