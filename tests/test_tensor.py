"""Contractions against the brute-force loop oracle, interchange format, helpers."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcpkit import (
    Tensor,
    TensorFormatError,
    contract_m1,
    contract_m1_batch,
    diagonal_tensor,
    identity_tensor,
    jacobian_m1,
    load_tensor,
    pos_part,
    power_component,
    principal_subtensor,
    save_tensor,
    symmetrize,
    tensor_from_dict,
    tensor_to_dict,
)
from oracles import naive_contract_m1


def random_tensor(m, n, seed, low=-1.0, high=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(low, high, size=(n,) * m))


# --- contraction -----------------------------------------------------------


def test_contract_matrix_vector():
    A = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(contract_m1(A, [1.0, 1.0]), [3.0, 7.0])


def test_contract_identity_is_componentwise_power():
    np.testing.assert_allclose(contract_m1(identity_tensor(3, 2), [2.0, 3.0]), [4.0, 9.0])


@pytest.mark.parametrize("m,n", [(3, 3), (4, 2), (2, 4)])
def test_contract_matches_loop_oracle(m, n):
    A = random_tensor(m, n, seed=m * 10 + n)
    rng = np.random.default_rng(99)
    for _ in range(3):
        x = rng.normal(size=n)
        np.testing.assert_allclose(
            contract_m1(A, x), naive_contract_m1(A.data, x), atol=1e-12
        )


def test_contract_full_examples():
    ones = np.ones(2)
    assert ones @ contract_m1(identity_tensor(4, 2), ones) == pytest.approx(2.0)
    A = random_tensor(3, 3, seed=5)
    assert np.zeros(3) @ contract_m1(A, np.zeros(3)) == 0.0
    x = np.random.default_rng(7).normal(size=3)
    assert x @ contract_m1(A, x) == pytest.approx(float(x @ naive_contract_m1(A.data, x)), abs=1e-12)


def test_contract_batch_matches_single():
    A = random_tensor(4, 3, seed=2)
    X = np.random.default_rng(3).normal(size=(7, 3))
    np.testing.assert_array_equal(contract_m1_batch(A, X), np.array([contract_m1(A, x) for x in X]))


def test_contract_dimension_mismatch():
    with pytest.raises(ValueError):
        contract_m1(identity_tensor(3, 2), [1.0, 2.0, 3.0])


@settings(max_examples=25, deadline=None)
@given(
    t=st.floats(min_value=0.01, max_value=10.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_contract_positive_homogeneity(t, seed):
    A = random_tensor(3, 3, seed=seed)
    x = np.random.default_rng(seed + 1).normal(size=3)
    lhs = contract_m1(A, t * x)
    rhs = t ** (A.m - 1) * contract_m1(A, x)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_contract_linear_in_tensor():
    A = random_tensor(3, 2, seed=1)
    B = random_tensor(3, 2, seed=2)
    x = np.array([0.3, -1.2])
    np.testing.assert_allclose(
        contract_m1(A.add(B), x), contract_m1(A, x) + contract_m1(B, x), atol=1e-12
    )


def test_subtensor_consistency_on_supported_vectors():
    A = random_tensor(3, 4, seed=11)
    J = (0, 2)
    x = np.zeros(4)
    x[list(J)] = [0.7, -0.4]
    full_rows = contract_m1(A, x)
    sub_rows = contract_m1(principal_subtensor(A, J), x[list(J)])
    np.testing.assert_allclose(full_rows[list(J)], sub_rows, atol=1e-12)


def test_symmetrize_preserves_full_contraction():
    for m, n in [(2, 3), (3, 3), (4, 2)]:
        A = random_tensor(m, n, seed=m + n)
        S = symmetrize(A)
        assert S.symmetric
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = rng.normal(size=n)
            assert x @ contract_m1(A, x) == pytest.approx(x @ contract_m1(S, x), abs=1e-10)


def test_jacobian_matches_finite_differences():
    for m, n in [(2, 3), (3, 3), (4, 2)]:
        A = random_tensor(m, n, seed=m * 7 + n)
        x0 = np.random.default_rng(23).normal(size=n)
        J = jacobian_m1(A, x0)
        eps = 1e-6
        for j in range(n):
            e = np.zeros(n)
            e[j] = eps
            fd = (contract_m1(A, x0 + e) - contract_m1(A, x0 - e)) / (2 * eps)
            np.testing.assert_allclose(J[:, j], fd, atol=1e-5)


# --- principal sub-tensors -------------------------------------------------


def test_subtensor_full_index_set_is_identity():
    A = random_tensor(3, 3, seed=4)
    assert principal_subtensor(A, (0, 1, 2)) == A


def test_subtensor_singleton_is_diagonal_entry():
    A = random_tensor(4, 3, seed=9)
    sub = principal_subtensor(A, (1,))
    assert sub.data.shape == (1, 1, 1, 1)
    assert sub.data[0, 0, 0, 0] == A.data[1, 1, 1, 1]


def test_subtensor_matrix_minor():
    A = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(principal_subtensor(A, (1,)).data, [[4.0]])


def test_subtensor_rejects_bad_index_sets():
    A = random_tensor(2, 3, seed=0)
    with pytest.raises(ValueError):
        principal_subtensor(A, ())
    with pytest.raises(ValueError):
        principal_subtensor(A, (0, 3))
    with pytest.raises(ValueError):
        principal_subtensor(A, (1, 1))


# --- structured tensors and componentwise helpers --------------------------


def test_unit_tensor_action():
    np.testing.assert_allclose(contract_m1(identity_tensor(3, 2), [2.0, 3.0]), [4.0, 9.0])


def test_pos_part_and_powers():
    np.testing.assert_allclose(pos_part([-1.0, 2.0]), [0.0, 2.0])
    np.testing.assert_allclose(power_component([4.0, 9.0], 0.5), [2.0, 3.0])
    np.testing.assert_allclose(power_component([2.0, 3.0], 2), [4.0, 9.0])
    with pytest.raises(ValueError):
        power_component([-8.0, 27.0], 1.0 / 3.0)
    with pytest.raises(ValueError):
        power_component([-4.0, 1.0], 0.5)


def test_power_component_rejects_any_negative_component():
    with pytest.raises(ValueError):
        power_component([2.0, -3.0], 2)  # an integer power of a negative is refused too
    with pytest.raises(ValueError):
        power_component([1.0, -0.0, -1e-300], 1.0)
    np.testing.assert_array_equal(power_component([0.0, -0.0, 1.0], 0.5), [0.0, 0.0, 1.0])


# --- Tensor construction invariants ----------------------------------------


def test_tensor_rejects_ragged_and_nonfinite():
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Tensor(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Tensor(np.zeros(3))  # order 1


def test_tensor_rejects_entries_whose_unfolding_overflows():
    # 1.5e308 + 1.5e308 overflows in the S unfolding at m = 3; no warning escapes
    with pytest.raises(ValueError, match="overflows"):
        diagonal_tensor([1.5e308, 1.0], 3)
    assert diagonal_tensor([1.5e308, 1.0], 2).S[0, 0, 0] == 1.5e308


def test_symmetric_flag_validation():
    asym = np.arange(8.0).reshape(2, 2, 2)
    assert not Tensor(asym).symmetric
    assert Tensor(np.zeros((2, 2, 2))).symmetric


def test_tensor_is_immutable():
    A = identity_tensor(2, 2)
    with pytest.raises(ValueError):
        A.data[0, 0] = 5.0


def test_symmetry_detection_is_exact_at_order_six():
    # a single off-diagonal entry that swapping the last axes cannot move
    data = np.zeros((2,) * 6)
    data[0, 1, 1, 1, 1, 1] = 1.0
    assert not Tensor(data).symmetric
    assert Tensor(symmetrize(Tensor(data)).data).symmetric


def test_symmetric_detection_under_permutations():
    S = symmetrize(random_tensor(3, 2, seed=8))
    for p in itertools.permutations(range(3)):
        np.testing.assert_allclose(S.data, np.transpose(S.data, p), atol=1e-12)


@pytest.mark.parametrize("m,n", [(2, 4), (3, 3), (4, 3), (5, 2)])
def test_symmetrize_is_exactly_permutation_invariant(m, n):
    S = symmetrize(random_tensor(m, n, seed=21))
    for p in itertools.permutations(range(m)):
        np.testing.assert_array_equal(S.data, np.transpose(S.data, p))


def test_symmetrized_tensors_survive_save_and_load(tmp_path):
    path = tmp_path / "s.json"
    for seed in range(20):
        rng = np.random.default_rng(seed)
        S = symmetrize(Tensor(rng.uniform(0.0, 1.0, size=(3, 3, 3))))
        save_tensor(S, path)
        B = load_tensor(path)
        assert B.symmetric
        np.testing.assert_array_equal(B.data, S.data)


def tiny_nonsymmetric():
    return Tensor(np.random.default_rng(0).uniform(-1.0, 1.0, (3, 3, 3))).scale(1e-13)


def test_symmetry_is_read_exactly_at_any_scale():
    # entries of order 1e-13 differ by less than an absolute tolerance of
    # 1e-12, but the flag switches on the symmetric-only bounds
    A = tiny_nonsymmetric()
    assert not A.symmetric
    assert symmetrize(A).symmetric


@pytest.mark.parametrize("symmetrized", [False, True])
def test_tiny_tensors_round_trip_through_the_interchange_format(symmetrized):
    A = symmetrize(tiny_nonsymmetric()) if symmetrized else tiny_nonsymmetric()
    B = tensor_from_dict(tensor_to_dict(A))
    assert B.symmetric == A.symmetric == symmetrized
    np.testing.assert_array_equal(B.data, A.data)


# --- JSON interchange -------------------------------------------------------


def test_interchange_round_trip(tmp_path):
    A = random_tensor(3, 3, seed=13)
    path = tmp_path / "t.json"
    save_tensor(A, path)
    B = load_tensor(path)
    assert A == B
    assert B.symmetric == A.symmetric


def test_interchange_defaults_to_zero():
    obj = {"m": 2, "n": 2, "symmetric": False, "entries": [{"idx": [1, 2], "v": 3.5}]}
    A = tensor_from_dict(obj)
    np.testing.assert_allclose(A.data, [[0.0, 3.5], [0.0, 0.0]])


def test_interchange_symmetric_replication():
    obj = {"m": 3, "n": 2, "symmetric": True, "entries": [{"idx": [1, 1, 2], "v": 2.0}]}
    A = tensor_from_dict(obj)
    for idx in itertools.permutations((0, 0, 1)):
        assert A.data[idx] == 2.0
    assert A.symmetric


def test_interchange_conflicting_duplicates_error():
    obj = {
        "m": 2,
        "n": 2,
        "symmetric": True,
        "entries": [{"idx": [1, 2], "v": 1.0}, {"idx": [2, 1], "v": 2.0}],
    }
    with pytest.raises(TensorFormatError):
        tensor_from_dict(obj)
    # equal duplicates are fine
    obj["entries"][1]["v"] = 1.0
    assert tensor_from_dict(obj).data[0, 1] == 1.0


def test_interchange_schema_errors():
    with pytest.raises(TensorFormatError):
        tensor_from_dict({"n": 2, "entries": []})
    with pytest.raises(TensorFormatError):
        tensor_from_dict({"m": 1, "n": 2, "entries": []})
    with pytest.raises(TensorFormatError):
        tensor_from_dict({"m": 2, "n": 2, "entries": [{"idx": [0, 1], "v": 1.0}]})
    with pytest.raises(TensorFormatError):
        tensor_from_dict({"m": 2, "n": 2, "entries": [{"idx": [1, 2, 1], "v": 1.0}]})


@pytest.mark.parametrize("field,value", [
    ("symmetric", "false"), ("symmetric", 0), ("symmetric", None),
    ("m", 3.9), ("m", True), ("m", "3"), ("n", 2.5), ("n", False), ("n", float("inf")),
])
def test_interchange_requires_a_boolean_flag_and_whole_sizes(field, value):
    obj = {"m": 3, "n": 2, "symmetric": False, "entries": [{"idx": [1, 1, 2], "v": 2.0}]}
    obj[field] = value
    with pytest.raises(TensorFormatError):
        tensor_from_dict(obj)


@pytest.mark.parametrize("idx", [[1, 1, 2.7], [1, True, 2], [1, "1", 2], [1, 1, None]])
def test_interchange_requires_whole_indices(idx):
    with pytest.raises(TensorFormatError):
        tensor_from_dict({"m": 3, "n": 2, "entries": [{"idx": idx, "v": 2.0}]})


@pytest.mark.parametrize("value", [True, False, "2.5", None, [2.5], float("nan"), float("inf")])
def test_interchange_requires_finite_real_values(value):
    with pytest.raises(TensorFormatError):
        tensor_from_dict({"m": 3, "n": 2, "entries": [{"idx": [1, 1, 2], "v": value}]})


def test_interchange_accepts_integer_values():
    A = tensor_from_dict({"m": 2, "n": 2, "entries": [{"idx": [1, 2], "v": 3}]})
    assert A.data[0, 1] == 3.0


def test_interchange_accepts_whole_floats():
    obj = {"m": 3.0, "n": 2.0, "symmetric": True, "entries": [{"idx": [1.0, 1, 2], "v": 2.0}]}
    A = tensor_from_dict(obj)
    assert (A.m, A.n, A.symmetric) == (3, 2, True) and type(A.m) is int
    assert A == tensor_from_dict({"m": 3, "n": 2, "symmetric": True,
                                  "entries": [{"idx": [1, 1, 2], "v": 2.0}]})


def test_load_rejects_bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(TensorFormatError):
        load_tensor(path)


def test_round_trip_preserves_computations(tmp_path):
    A = diagonal_tensor([2.0, 5.0], 4)
    path = tmp_path / "d.json"
    save_tensor(A, path)
    B = load_tensor(path)
    x = np.array([0.3, 0.9])
    np.testing.assert_array_equal(contract_m1(A, x), contract_m1(B, x))


# ---------------------------------------------------------------------------
# result-record encoder: every record's to_jsonable goes through one encoder
# ---------------------------------------------------------------------------


def _diag_instance():
    from tcpkit import TcpInstance

    return TcpInstance(diagonal_tensor([1.0, 2.0, 3.0], 3), np.array([-1.0, 0.5, -2.0]))


def test_encoder_support_is_one_based():
    from tcpkit import h_plus_eigenpairs, solve_enumeration

    sols = solve_enumeration(_diag_instance())
    assert sols and all(s.to_jsonable()["support"] == [i + 1 for i in s.support] for s in sols)
    assert [s.to_jsonable()["support"] for s in sols] == [[1, 3]]
    recs = h_plus_eigenpairs(diagonal_tensor([1.0, 2.0], 3))
    assert sorted(r.to_jsonable()["support"] for r in recs) == [[1], [2]]
    assert all(r.vector[r.to_jsonable()["support"][0] - 1] == 1.0 for r in recs)


def test_encoder_norm_report_p():
    from tcpkit import OP_SCALED, estimate_norm

    A = diagonal_tensor([1.0, 2.0], 3)
    inf_rec = estimate_norm(A, OP_SCALED, np.inf, budget=2).to_jsonable()
    two_rec = estimate_norm(A, OP_SCALED, 2.0, budget=2).to_jsonable()
    assert inf_rec["p"] == "inf"
    assert type(two_rec["p"]) is float and two_rec["p"] == 2.0
    assert all(type(v) is float for v in inf_rec["witness"])


def test_encoder_numpy_scalars_become_python_scalars():
    from tcpkit import BetaResult, BoundsReport, ResidualRecord

    res = ResidualRecord(np.float64(-1e-12), np.float64(0.5), np.float64(0.0), np.bool_(True))
    enc = res.to_jsonable()
    assert enc == {"primal": -1e-12, "dual": 0.5, "compl": 0.0, "ok": True}
    assert [type(enc[k]) for k in ("primal", "dual", "compl", "ok")] == [float, float, float, bool]
    beta = BetaResult(np.float64(1.0), np.array([1.0, 0.5]), "grid", np.int64(21)).to_jsonable()
    assert type(beta["value"]) is float and type(beta["grid_resolution"]) is int
    report = BoundsReport("id", np.int64(0), [], {"heuristic": np.bool_(False)}).to_jsonable()
    assert type(report["solution_index"]) is int and type(report["provenance"]["heuristic"]) is bool
    assert json.dumps(enc) and json.dumps(beta) and json.dumps(report)


def test_encoder_nested_classification():
    from tcpkit import classify

    cls = classify(identity_tensor(3, 2))
    assert cls.counterexample is None
    enc = cls.to_jsonable()
    assert list(enc) == ["verdict", "beta", "counterexample"]
    assert enc["verdict"] == cls.verdict and enc["counterexample"] is None
    assert enc["beta"] == {
        "value": cls.beta.value,
        "argmin": [float(v) for v in cls.beta.argmin],
        "certified_by": cls.beta.certified_by,
        "grid_resolution": cls.beta.grid_resolution,
    }


def test_encoder_bound_entry_flags_become_a_list():
    from tcpkit import GeneratorSpec, verify_bounds

    spec = GeneratorSpec("matrix_m2", 2, 2, seed=3, parameters={"symmetric": True})
    report = verify_bounds(spec, 1)[0]
    enc = report.to_jsonable()
    assert enc["entries"][0]["flags"] == ["copositive_equivalent"]
    assert enc["provenance"] == report.provenance
    assert [e["entry_id"] for e in enc["entries"]] == [e.entry_id for e in report.entries]


def test_encoder_output_dumps_for_every_result():
    from tcpkit import (
        OP_ROOT, GeneratorSpec, classify, estimate_norm, solve_enumeration, spectrum,
        verify_bounds,
    )

    A = diagonal_tensor([1.0, 2.0, 3.0], 4)
    results = [
        classify(A),
        classify(Tensor(np.array([[0.0, -1.0], [-1.0, 0.0]]))),
        estimate_norm(A, OP_ROOT, np.inf, budget=2),
        spectrum(A, "pareto_h"),
        spectrum(A, "delta_h_plus"),
        *solve_enumeration(_diag_instance()),
        *verify_bounds(GeneratorSpec("identity_shift", 3, 2, seed=1), 1),
    ]
    for res in results:
        text = json.dumps(res.to_jsonable(), sort_keys=True, allow_nan=False)
        assert json.loads(text) == res.to_jsonable()
