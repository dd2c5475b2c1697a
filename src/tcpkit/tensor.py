"""Dense order-m dimension-n tensors and their multilinear contractions.

Storage is a plain row-major ndarray of shape ``(n,) * m``; at desk scale
(n <= 8, m <= 4) that is at most a few thousand entries, and nothing is
ever kept sparse.  Every contraction and Jacobian, at every order, is one
rule on two unfoldings each tensor keeps: ``A2``, the data as an
``(n, n^(m-1))`` matrix, and ``S``, the sum over trailing modes p of the
data with mode p moved to position 1, as ``(n, n, n^(m-2))``.  With
``K_p`` the row-wise p-th Kronecker power of a batch X, the contraction is
``einsum("bk,ik->bi", K_{m-1}, A2)`` and the Jacobian
``einsum("bk,ijk->bij", K_{m-2}, S)``.  One vector is a one-row batch, the
lanes of :func:`lane_maps` gather stacked unfoldings, and no BLAS product
is used, so a row's value never depends on the batch it rides in.  Indices are
0-based everywhere in the library; JSON is 1-based, and conversion happens
in two places: :func:`tensor_from_dict` / :func:`tensor_to_dict` for the
tensor interchange format, and the result-record encoder
:class:`JsonRecord` for every ``support`` field.

Tensors are immutable after construction, so every operation here is a
pure function that is safe to call concurrently.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "JsonRecord",
    "Tensor",
    "TensorFormatError",
    "as_vector",
    "contract_m1",
    "contract_m1_batch",
    "jacobian_m1",
    "jacobian_m1_batch",
    "principal_subtensor",
    "supports_by_size",
    "zero_extend",
    "stacked_subtensors",
    "lane_maps",
    "validate_index_set",
    "identity_tensor",
    "diagonal_tensor",
    "symmetrize",
    "pos_part",
    "power_component",
    "tensor_from_dict",
    "tensor_to_dict",
    "load_tensor",
    "save_tensor",
]


_BLOCK_ENTRIES = 1 << 16  # Kronecker entries per contraction block: 512 KiB of float64


class TensorFormatError(ValueError):
    """Malformed tensor or instance interchange data."""


class Tensor:
    """Immutable dense tensor with a uniform mode dimension.

    Parameters
    ----------
    data:
        Anything convertible to a float ndarray of shape ``(n,) * m`` with
        m >= 2 and finite entries whose ``S`` unfolding (sums of m - 1 of
        them) is finite too; anything else raises ``ValueError``.  The array
        is copied and frozen.  ``symmetric`` holds when every index
        permutation leaves the entries unchanged bit for bit;
        :func:`symmetrize` makes data exactly symmetric.
    """

    __slots__ = ("data", "m", "n", "symmetric", "A2", "S")

    def __init__(self, data):
        arr = np.array(data, dtype=float, order="C")
        if arr.ndim < 2:
            raise ValueError(f"tensor order must be >= 2, got {arr.ndim}")
        n = arr.shape[0]
        if any(s != n for s in arr.shape):
            raise ValueError(f"all mode dimensions must agree, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        arr.setflags(write=False)
        self.data = arr
        self.m = arr.ndim
        self.n = n
        # the adjacent transpositions generate the symmetric group, so exact
        # invariance under these m-1 swaps is invariance under every permutation
        self.symmetric = all(np.array_equal(arr, np.swapaxes(arr, k, k + 1)) for k in range(self.m - 1))
        # the unfoldings of every contraction and Jacobian (module docstring)
        self.A2 = arr.reshape(n, -1)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            self.S = sum(np.moveaxis(arr, p, 1) for p in range(1, self.m)).reshape(n, n, -1)
        if not np.all(np.isfinite(self.S)):
            raise ValueError("tensor entries too large: a sum of m - 1 of them overflows")
        self.S.setflags(write=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = ", symmetric" if self.symmetric else ""
        return f"Tensor(m={self.m}, n={self.n}{tag})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor)
            and self.m == other.m
            and self.n == other.n
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self):
        return hash((self.m, self.n, self.data.tobytes()))

    def diagonal(self) -> np.ndarray:
        """The vector of entries with all indices equal."""
        idx = np.arange(self.n)
        return self.data[tuple([idx] * self.m)].copy()

    def row_abs_sums(self) -> np.ndarray:
        """Per-slot absolute sums: sum of |entries| over all trailing modes."""
        return np.abs(self.data).reshape(self.n, -1).sum(axis=1)

    def scale(self, t: float) -> "Tensor":
        return Tensor(self.data * float(t))

    def add(self, other: "Tensor") -> "Tensor":
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("tensor shapes do not match")
        return Tensor(self.data + other.data)


def as_vector(x, n: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of ndim {v.ndim}")
    if n is not None and v.size != n:
        raise ValueError(f"vector length {v.size} does not match dimension {n}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def _kron_rows(X: np.ndarray, p: int) -> np.ndarray:
    """Row-wise p-th Kronecker power of the (..., n) rows of X, shape (..., n^p)."""
    if p == 0:
        return np.ones(X.shape[:-1] + (1,))
    K = X
    for _ in range(p - 1):
        K = (K[..., :, None] * X[..., None, :]).reshape(X.shape[:-1] + (K.shape[-1] * X.shape[-1],))
    return K


def _contract(A: Tensor, X: np.ndarray) -> np.ndarray:
    """The contraction of every row of X, ``_BLOCK_ENTRIES`` Kronecker
    entries at a time; a row's value does not depend on its block."""
    if len(X) * A.A2.shape[1] <= _BLOCK_ENTRIES:
        return np.einsum("bk,ik->bi", _kron_rows(X, A.m - 1), A.A2)
    block = max(1, _BLOCK_ENTRIES // A.A2.shape[1])
    return np.concatenate([np.einsum("bk,ik->bi", _kron_rows(X[s : s + block], A.m - 1), A.A2)
                           for s in range(0, X.shape[0], block)])


def _rows(A: Tensor, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != A.n:
        raise ValueError(f"expected batch of shape (B, {A.n})")
    return X


def contract_m1(A: Tensor, x) -> np.ndarray:
    """Contract x into all but the first mode: the degree-(m-1) polynomial map.

    Component i is the sum over all trailing multi-indices of
    ``A[i, i2, ..., im] * x[i2] * ... * x[im]``.  This is the one-row call
    of :func:`contract_m1_batch`'s kernel (called directly, so that a traced
    batch count holds only batch calls).
    """
    return _contract(A, as_vector(x, A.n)[None, :])[0]


def contract_m1_batch(A: Tensor, X: np.ndarray) -> np.ndarray:
    """contract_m1 for a batch of vectors, shape (B, n) -> (B, n)."""
    return _contract(A, _rows(A, X))


def jacobian_m1_batch(A: Tensor, X: np.ndarray) -> np.ndarray:
    """jacobian_m1 for a batch of vectors, shape (B, n) -> (B, n, n)."""
    return np.einsum("bk,ijk->bij", _kron_rows(_rows(A, X), A.m - 2), A.S)


def jacobian_m1(A: Tensor, x) -> np.ndarray:
    """Jacobian of ``y -> contract_m1(A, y)`` at x: the one-row call of
    :func:`jacobian_m1_batch`.

    Entry (i, j) sums, over each trailing mode p, the contraction of x into
    every mode except the first and p.  For symmetric tensors this equals
    (m-1) times the order-2 contraction.
    """
    return jacobian_m1_batch(A, as_vector(x, A.n)[None, :])[0]


def validate_index_set(J: Iterable[int], n: int) -> tuple[int, ...]:
    """Normalize a 0-based index subset: sorted, unique, in range, nonempty."""
    idx = tuple(int(i) for i in J)
    if len(idx) == 0:
        raise ValueError("index set must be nonempty")
    if len(set(idx)) != len(idx):
        raise ValueError(f"index set has duplicates: {idx}")
    if any(i < 0 or i >= n for i in idx):
        raise ValueError(f"index out of range for dimension {n}: {idx}")
    return tuple(sorted(idx))


def principal_subtensor(A: Tensor, J: Iterable[int]) -> Tensor:
    """Restrict every mode to the index subset J (0-based), reindexed by J's order."""
    idx = validate_index_set(J, A.n)
    sel = np.array(idx, dtype=int)
    sub = A.data[np.ix_(*([sel] * A.m))]
    return Tensor(sub)


def zero_extend(y, J: Iterable[int], n: int) -> np.ndarray:
    """The length-n vector that carries y on the index subset J, zero elsewhere."""
    x = np.zeros(n)
    x[list(J)] = y
    return x


def supports_by_size(n: int) -> Iterator[list[tuple[int, ...]]]:
    """The nonempty index subsets of range(n), one list per size from 1 to n,
    each list in lexicographic order."""
    for size in range(1, n + 1):
        yield list(itertools.combinations(range(n), size))


def stacked_subtensors(A: Tensor, group: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The entries and the ``S`` unfolding of every principal sub-tensor
    ``A_J``, J in ``group`` (index subsets of one size r), stacked, both of
    shape ``(g,) + (r,) * m``.

    Both are one fancy index of ``A``'s own arrays, and no sub-tensor is
    built.  Restriction commutes with the sum over modes behind ``S``, so
    each slice holds :func:`principal_subtensor`'s values bit for bit.
    """
    G = np.array(group, dtype=int)
    g, r = G.shape
    idx = tuple(G.reshape((g,) + (1,) * p + (r,) + (1,) * (A.m - 1 - p)) for p in range(A.m))
    return A.data[idx], A.S.reshape(A.data.shape)[idx]


def lane_maps(data: np.ndarray, S: np.ndarray, owner: np.ndarray):
    """Contraction and Jacobian maps for Newton lanes spread over the
    sub-tensors of :func:`stacked_subtensors`, lane ``l`` belonging to
    sub-tensor ``owner[l]``.

    ``contract(Y, lanes)`` maps a (k, w, r) block, w points of each of the k
    lanes ``lanes``, to its (k, w, r) contractions; ``jacobian(Y, lanes)``
    maps (k, r) points to their (k, r, r) Jacobians.  The unfoldings are
    gathered per lane, and each row is the batch kernels' rule on its own
    sub-tensor, so it equals the :func:`contract_m1_batch` /
    :func:`jacobian_m1_batch` row of that sub-tensor bit for bit.
    """
    g, r, m = data.shape[0], data.shape[1], data.ndim - 1
    A2, S = data.reshape(g, r, -1), S.reshape(g, r, r, -1)

    def contract(Y: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        return np.einsum("zwk,zik->zwi", _kron_rows(Y, m - 1), A2[owner[lanes]])

    def jacobian(Y: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        return np.einsum("zk,zijk->zij", _kron_rows(Y, m - 2), S[owner[lanes]])

    return contract, jacobian


def identity_tensor(m: int, n: int) -> Tensor:
    """Diagonal tensor of ones; contracting maps x to its componentwise (m-1) power."""
    return diagonal_tensor(np.ones(n), m)


def diagonal_tensor(d, m: int) -> Tensor:
    d = as_vector(d)
    data = np.zeros((d.size,) * m)
    idx = np.arange(d.size)
    data[tuple([idx] * m)] = d
    return Tensor(data)


def symmetrize(A: Tensor) -> Tensor:
    """Average over all index permutations; preserves x -> full contraction.

    The sum runs in a different order for each cell, so every cell then
    takes the value of its sorted-index cell, which makes the result
    exactly permutation invariant.
    """
    if A.symmetric:
        return A
    acc = np.zeros_like(A.data)
    perms = list(itertools.permutations(range(A.m)))
    for p in perms:
        acc += np.transpose(A.data, axes=p)
    sorted_cell = np.sort(np.indices(A.data.shape), axis=0)
    return Tensor((acc / len(perms))[tuple(sorted_cell)])


def pos_part(x) -> np.ndarray:
    """Componentwise max(., 0)."""
    return np.maximum(as_vector(x), 0.0)


def power_component(x, p: float) -> np.ndarray:
    """Componentwise p-th power of a nonnegative vector."""
    v = as_vector(x)
    if not np.all(v >= 0):
        raise ValueError("power_component needs nonnegative components")
    return v ** float(p)


# ---------------------------------------------------------------------------
# JSON interchange
#
# {"m": int, "n": int, "symmetric": bool,
#  "entries": [{"idx": [i1, ..., im], "v": value}, ...]}
#
# m, n and every idx value are whole numbers and symmetric is a boolean; idx is
# 1-based; unspecified cells default to 0; with "symmetric": true each entry is
# replicated to all permutations of its index, and two entries that land on the
# same cell with different values are an error.
# ---------------------------------------------------------------------------


def _whole(value) -> int:
    """A JSON whole number as an int; booleans, strings and fractions raise."""
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if not whole or isinstance(value, bool):
        raise ValueError(f"not a whole number: {value!r}")
    return int(value)


def _real(value) -> float:
    """A finite JSON number as a float; booleans, strings and non-finite values raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"not a finite real: {value!r}")
    return float(value)


def tensor_from_dict(obj) -> Tensor:
    if not isinstance(obj, dict):
        raise TensorFormatError("tensor object must be a JSON object")
    try:
        m = _whole(obj["m"])
        n = _whole(obj["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TensorFormatError("tensor object needs integer fields 'm' and 'n'") from exc
    if m < 2:
        raise TensorFormatError(f"tensor order must be >= 2, got {m}")
    if n < 1:
        raise TensorFormatError(f"tensor dimension must be >= 1, got {n}")
    symmetric = obj.get("symmetric", False)
    if not isinstance(symmetric, bool):
        raise TensorFormatError(f"'symmetric' must be true or false, got {symmetric!r}")
    entries = obj.get("entries", [])
    if not isinstance(entries, list):
        raise TensorFormatError("'entries' must be a list")

    data = np.zeros((n,) * m)
    assigned: dict[tuple[int, ...], float] = {}
    for k, ent in enumerate(entries):
        try:
            idx = tuple(_whole(i) for i in ent["idx"])
            val = _real(ent["v"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TensorFormatError(f"entry {k} needs 'idx' (list of ints) and 'v' (finite real)") from exc
        if len(idx) != m:
            raise TensorFormatError(f"entry {k}: idx has length {len(idx)}, expected {m}")
        if any(i < 1 or i > n for i in idx):
            raise TensorFormatError(f"entry {k}: index out of range 1..{n}: {idx}")
        zero_based = tuple(i - 1 for i in idx)
        cells = set(itertools.permutations(zero_based)) if symmetric else {zero_based}
        for cell in cells:
            if cell in assigned and assigned[cell] != val:
                one_based = tuple(i + 1 for i in cell)
                raise TensorFormatError(
                    f"conflicting duplicate values {assigned[cell]} and {val} at index {one_based}"
                )
            assigned[cell] = val
            data[cell] = val
    return Tensor(data)


def tensor_to_dict(A: Tensor) -> dict:
    entries = []
    for cell in itertools.product(range(A.n), repeat=A.m):
        v = float(A.data[cell])
        if v != 0.0:
            entries.append({"idx": [i + 1 for i in cell], "v": v})
    return {"m": A.m, "n": A.n, "symmetric": A.symmetric, "entries": entries}


def load_tensor(path) -> Tensor:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise TensorFormatError(f"cannot read tensor file {path}: {exc}") from exc
    return tensor_from_dict(obj)


def save_tensor(A: Tensor, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tensor_to_dict(A), fh, sort_keys=True)
        fh.write("\n")


def _jsonable(value, name: str = ""):
    """The JSON form of a result value: a dataclass becomes the dict of its
    fields by name, a field named ``support`` a 1-based list, arrays, lists
    and tuples lists, dicts are encoded value by value, numpy scalars become
    Python scalars, and positive infinity becomes ``"inf"``."""
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name), f.name) for f in dataclasses.fields(value)}
    if name == "support":
        return [i + 1 for i in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (np.ndarray, list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and value == math.inf:
        return "inf"
    return value


class JsonRecord:
    """Base of the result dataclasses; their JSON form is :func:`_jsonable`'s."""

    def to_jsonable(self) -> dict:
        return _jsonable(self)
